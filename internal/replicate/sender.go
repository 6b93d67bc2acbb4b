package replicate

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"sync"
	"time"

	"krad/internal/journal"
)

// ErrFenced reports that this daemon observed a follower holding a higher
// replication epoch: the follower was promoted, a split brain is one
// acknowledged write away, and the deposed primary must refuse admissions
// permanently (the latch is sticky — only a restart with a higher -epoch
// clears it, which is an operator acknowledging the takeover).
var ErrFenced = errors.New("replicate: fenced — a follower holds a higher epoch; this daemon is no longer primary")

// ErrLeaseExpired reports that the follower has not acknowledged within
// the configured lease: the primary cannot know whether the follower
// promoted itself, so it stops acknowledging new work until acks resume.
// Unlike ErrFenced this clears on its own when the link heals.
var ErrLeaseExpired = errors.New("replicate: replication lease expired (follower unreachable)")

// errStopped ends the run loop on Stop.
var errStopped = errors.New("replicate: sender stopped")

// batchMax caps records per recs frame.
const batchMax = 256

// SenderConfig parameterizes a Sender.
type SenderConfig struct {
	// Addr is the follower's replication listen address.
	Addr string
	// Epoch is this primary's replication epoch (≥ 1).
	Epoch int64
	// WAL names each shard's journal file, in shard order: the records
	// the sender ships, read as they land. Its length is the fleet shard
	// count, which must match the follower's. Required.
	WAL []string
	// Heartbeat is the idle keepalive interval (and the base of the
	// link-death detection deadlines). 0 means 1s.
	Heartbeat time.Duration
	// Lease, when positive, gates admissions on follower liveness: if no
	// ack arrives within Lease of the previous one, WriteAllowed returns
	// ErrLeaseExpired until acks resume. Configure Lease strictly below
	// the follower's promote-after timeout and a promoted follower can
	// never overlap with a still-admitting primary. 0 disables gating.
	Lease time.Duration
	// MinBackoff/MaxBackoff bound the jittered exponential reconnect
	// backoff. 0 means 50ms / 3s.
	MinBackoff time.Duration
	MaxBackoff time.Duration
	// Dial opens the transport; nil means net.Dial("tcp", Addr). Tests
	// inject fault transports here.
	Dial func(addr string) (net.Conn, error)
	// Logf receives connection lifecycle messages; nil discards them.
	Logf func(format string, args ...any)
}

// SenderStats is a point-in-time replication summary of the primary side.
type SenderStats struct {
	// Epoch is the configured epoch; Fenced/FencedBy report the sticky
	// fence latch.
	Epoch    int64 `json:"epoch"`
	Fenced   bool  `json:"fenced,omitempty"`
	FencedBy int64 `json:"fenced_by,omitempty"`
	// Connected reports a live, handshaken stream; Reconnects counts
	// re-dials after the first successful handshake.
	Connected  bool  `json:"connected"`
	Reconnects int64 `json:"reconnects"`
	// LagRecords is the total number of committed records the follower
	// has not yet acknowledged, summed over shards.
	LagRecords int64 `json:"lag_records"`
	// LeaseExpired reports the lease gate currently refusing writes.
	LeaseExpired bool `json:"lease_expired,omitempty"`
}

// Sender is the primary half of replication: woken by Committed (the
// server's shard commit hook), it reads each shard's newly committed
// records from the shard's WAL, streams them to the follower in order, and
// converts the follower's acks into a liveness lease. See the package
// comment for the protocol.
type Sender struct {
	cfg SenderConfig

	mu         sync.Mutex
	committed  []int64 // per shard, the highest seq Committed reported
	acked      []int64 // per shard, highest seq the follower acknowledged
	conn       net.Conn
	connected  bool
	started    bool
	everAcked  bool
	lastAck    time.Time
	reconnects int64
	fenced     bool
	fencedBy   int64

	out []byte // the frames being written (the stream goroutine's)

	wake chan struct{}
	stop chan struct{}
	done chan struct{}
}

// NewSender builds a sender; call Start once it is attached as the commit
// hook.
func NewSender(cfg SenderConfig) (*Sender, error) {
	if len(cfg.WAL) < 1 {
		return nil, fmt.Errorf("replicate: sender needs ≥ 1 shard WAL")
	}
	if cfg.Epoch < 1 {
		return nil, fmt.Errorf("replicate: sender epoch %d, want ≥ 1", cfg.Epoch)
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = time.Second
	}
	if cfg.MinBackoff <= 0 {
		cfg.MinBackoff = 50 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 3 * time.Second
	}
	if cfg.Dial == nil {
		cfg.Dial = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	s := &Sender{
		cfg:       cfg,
		committed: make([]int64, len(cfg.WAL)),
		acked:     make([]int64, len(cfg.WAL)),
		wake:      make(chan struct{}, 1),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	return s, nil
}

// Start launches the connection loop.
func (s *Sender) Start() {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return
	}
	s.started = true
	s.mu.Unlock()
	go s.run()
}

// Stop terminates the sender and waits for its goroutines.
func (s *Sender) Stop() {
	s.mu.Lock()
	if !s.started {
		s.started = true
		close(s.done)
	}
	select {
	case <-s.stop:
	default:
		close(s.stop)
	}
	if s.conn != nil {
		_ = s.conn.Close()
	}
	s.mu.Unlock()
	<-s.done
}

// Committed is the shard commit hook: the shard's WAL now holds its seq-th
// mutation (attaching the hook reports what the WAL already held). It runs
// under the shard lock, so it only notes the seq and nudges the stream
// goroutine, which reads the record from the WAL: nothing is copied, and
// backpressure never reaches the commit path. No record past the highest
// seq noted is shipped, so one the primary failed to commit never is.
func (s *Sender) Committed(shard int, seq int64) {
	s.mu.Lock()
	if shard >= 0 && shard < len(s.committed) && seq > s.committed[shard] {
		s.committed[shard] = seq
	}
	s.mu.Unlock()
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// WriteAllowed implements the server's admission gate: nil while this
// daemon may act as primary, ErrFenced after observing a higher epoch,
// ErrLeaseExpired while the follower lease is blown.
func (s *Sender) WriteAllowed() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fenced {
		return fmt.Errorf("%w (our epoch %d, follower epoch %d)", ErrFenced, s.cfg.Epoch, s.fencedBy)
	}
	if s.cfg.Lease > 0 && s.everAcked {
		if age := time.Since(s.lastAck); age > s.cfg.Lease {
			return fmt.Errorf("%w: last ack %v ago, lease %v", ErrLeaseExpired, age.Round(time.Millisecond), s.cfg.Lease)
		}
	}
	return nil
}

// Stats snapshots the sender.
func (s *Sender) Stats() SenderStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := SenderStats{
		Epoch:      s.cfg.Epoch,
		Fenced:     s.fenced,
		FencedBy:   s.fencedBy,
		Connected:  s.connected,
		Reconnects: s.reconnects,
	}
	for i := range s.committed {
		if lag := s.committed[i] - s.acked[i]; lag > 0 {
			st.LagRecords += lag
		}
	}
	if s.cfg.Lease > 0 && s.everAcked && time.Since(s.lastAck) > s.cfg.Lease {
		st.LeaseExpired = true
	}
	return st
}

// fence latches the sticky deposed-primary state.
func (s *Sender) fence(epoch int64) {
	s.mu.Lock()
	if !s.fenced {
		s.fenced = true
		s.fencedBy = epoch
	}
	s.mu.Unlock()
	s.cfg.Logf("replicate: fenced by follower epoch %d (our epoch %d); refusing admissions", epoch, s.cfg.Epoch)
}

func (s *Sender) stopped() bool {
	select {
	case <-s.stop:
		return true
	default:
		return false
	}
}

// run dials, serves, and reconnects with jittered exponential backoff
// until stopped or fenced.
func (s *Sender) run() {
	defer close(s.done)
	backoff := s.cfg.MinBackoff
	for {
		if s.stopped() {
			return
		}
		s.mu.Lock()
		fenced := s.fenced
		s.mu.Unlock()
		if fenced {
			return
		}
		conn, err := s.cfg.Dial(s.cfg.Addr)
		if err == nil {
			err = s.serve(conn)
			_ = conn.Close()
			if errors.Is(err, errStopped) || errors.Is(err, ErrFenced) {
				return
			}
			s.cfg.Logf("replicate: stream to %s broke: %v", s.cfg.Addr, err)
			backoff = s.cfg.MinBackoff
		} else {
			s.cfg.Logf("replicate: dial %s: %v", s.cfg.Addr, err)
		}
		// Capped exponential backoff with ±50% jitter so a fleet of
		// reconnecting primaries cannot dogpile a follower.
		delay := backoff/2 + rand.N(backoff)
		backoff *= 2
		if backoff > s.cfg.MaxBackoff {
			backoff = s.cfg.MaxBackoff
		}
		select {
		case <-s.stop:
			return
		case <-time.After(delay):
		}
	}
}

// deadline is the link-death detection window: generous multiples of the
// heartbeat so one delayed ack never kills a healthy stream.
func (s *Sender) deadline() time.Duration {
	d := 4 * s.cfg.Heartbeat
	if d < 2*time.Second {
		d = 2 * time.Second
	}
	return d
}

// serve runs one connection: handshake, then stream records, heartbeats
// and catch-up until the link dies, the follower fences us, or Stop.
func (s *Sender) serve(conn net.Conn) error {
	_ = conn.SetDeadline(time.Now().Add(s.deadline()))
	if err := WriteMagic(conn); err != nil {
		return fmt.Errorf("write magic: %w", err)
	}
	if err := WriteFrame(conn, Frame{T: FrameHello, Epoch: s.cfg.Epoch, Shards: len(s.cfg.WAL)}); err != nil {
		return fmt.Errorf("write hello: %w", err)
	}
	br := bufio.NewReader(conn)
	if err := ReadMagic(br); err != nil {
		return fmt.Errorf("read magic: %w", err)
	}
	f, err := ReadFrame(br)
	if err != nil {
		return fmt.Errorf("read hello-ack: %w", err)
	}
	if f.Epoch > s.cfg.Epoch {
		s.fence(f.Epoch)
		return ErrFenced
	}
	if f.T != FrameHelloAck {
		return fmt.Errorf("handshake answered with %q, want hello-ack", f.T)
	}
	if len(f.Next) != len(s.cfg.WAL) {
		return fmt.Errorf("follower tracks %d shards, we run %d — refusing to replicate across configurations", len(f.Next), len(s.cfg.WAL))
	}
	cursors := append([]int64(nil), f.Next...)
	tails := make([]*journal.Tail, len(cursors))
	for i, path := range s.cfg.WAL {
		tails[i] = journal.OpenTail(path, cursors[i])
		defer tails[i].Close()
	}

	s.mu.Lock()
	s.conn = conn
	s.connected = true
	s.lastAck = time.Now()
	s.everAcked = true
	for i, n := range f.Next {
		s.acked[i] = n - 1
	}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.connected = false
		s.conn = nil
		s.reconnects++
		s.mu.Unlock()
	}()
	s.cfg.Logf("replicate: streaming to %s (epoch %d, cursors %v)", s.cfg.Addr, s.cfg.Epoch, cursors)

	readerErr := make(chan error, 1)
	go s.readAcks(conn, br, readerErr)

	ticker := time.NewTicker(s.cfg.Heartbeat)
	defer ticker.Stop()
	for {
		sent := false
		for shard := range cursors {
			n, err := s.pump(conn, shard, tails[shard], &cursors[shard])
			if err != nil {
				return err
			}
			sent = sent || n
		}
		if sent {
			// More may already be queued; loop before blocking.
			continue
		}
		select {
		case <-s.stop:
			return errStopped
		case err := <-readerErr:
			return err
		case <-s.wake:
		case <-ticker.C:
			_ = conn.SetWriteDeadline(time.Now().Add(s.deadline()))
			if err := WriteFrame(conn, Frame{T: FrameHeartbeat, Epoch: s.cfg.Epoch}); err != nil {
				return fmt.Errorf("write heartbeat: %w", err)
			}
		}
	}
}

// readAcks drains the follower's frames: acks renew the lease and advance
// the acked cursors, a fence latches and kills the connection.
func (s *Sender) readAcks(conn net.Conn, br *bufio.Reader, out chan<- error) {
	for {
		_ = conn.SetReadDeadline(time.Now().Add(s.deadline()))
		f, err := ReadFrame(br)
		if err != nil {
			out <- fmt.Errorf("read ack: %w", err)
			return
		}
		switch f.T {
		case FrameAck:
			s.mu.Lock()
			s.lastAck = time.Now()
			for i, n := range f.Next {
				if i < len(s.acked) && n-1 > s.acked[i] {
					s.acked[i] = n - 1
				}
			}
			s.mu.Unlock()
		case FrameFence:
			s.fence(f.Epoch)
			out <- ErrFenced
			return
		default:
			out <- fmt.Errorf("follower sent %q, want ack or fence", f.T)
			return
		}
	}
}

// pump ships the next frames of one shard once the WAL holds records the
// follower lacks. Reports whether anything was sent.
func (s *Sender) pump(conn net.Conn, shard int, tail *journal.Tail, cursor *int64) (bool, error) {
	s.mu.Lock()
	committed := s.committed[shard]
	s.mu.Unlock()
	if *cursor > committed+1 {
		return false, fmt.Errorf("shard %d: follower wants seq %d but the primary has committed only %d — the follower is ahead (journals diverged; refusing to replicate)", shard, *cursor, committed)
	}
	if *cursor > committed {
		return false, nil
	}
	from := *cursor
	out, err := appendWAL(s.out[:0], s.cfg.Epoch, shard, tail, cursor, committed)
	s.out = out
	if err != nil || len(out) == 0 {
		// Nothing written yet: the record being read is still landing, and
		// the next wake or heartbeat tick reads it again.
		return false, err
	}
	_ = conn.SetWriteDeadline(time.Now().Add(s.deadline()))
	if _, err := conn.Write(out); err != nil {
		return false, fmt.Errorf("shard %d: write seqs [%d,%d): %w", shard, from, *cursor, err)
	}
	return true, nil
}

// appendWAL appends to dst the next frames of shard's stream read from
// tail, no record past seq limit: up to batchMax consecutive records in one
// recs frame, each spliced in as the CRC-checked payload the WAL holds. A
// head snapshot, there when compaction folded records the follower lacks,
// ends the batch and follows alone in a snap frame. The bytes are those
// WriteFrame writes for the same frames; cursor advances past what they
// carry.
func appendWAL(dst []byte, epoch int64, shard int, tail *journal.Tail, cursor *int64, limit int64) ([]byte, error) {
	start, n := len(dst), 0
	for n < batchMax {
		e, ok, err := tail.Next(limit)
		if err != nil {
			return dst, fmt.Errorf("shard %d: read WAL at seq %d: %w", shard, *cursor, err)
		}
		if !ok {
			break
		}
		if e.Snap && n > 0 {
			dst = closeRecs(dst, n)
			seal(dst, start)
			start, n = len(dst), 0
		}
		if n == 0 {
			f := Frame{T: FrameRecs, Epoch: epoch, Shard: shard, Seq: e.Seq}
			if e.Snap {
				f.T = FrameSnap
			}
			dst = f.appendHead(append(dst, make([]byte, frameHeaderLen)...))
		}
		dst = append(recSep(dst, n), e.Payload...)
		n++
		*cursor = e.Seq + 1
		if e.Snap {
			break
		}
	}
	if n > 0 {
		dst = closeRecs(dst, n)
		seal(dst, start)
	}
	return dst, nil
}
