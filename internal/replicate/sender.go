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

// SeqRecord is one sequenced committed record of a shard's stream. Seq is
// the record's 1-based position in the shard's mutation sequence since
// engine birth.
type SeqRecord struct {
	Seq int64
	Rec journal.Record
}

// CatchUpFunc supplies the records a reconnecting follower is missing
// when they have aged out of the in-memory send queue — in practice, a
// read of the shard's own WAL file (see server.JournalCatchUp). It
// returns the records with sequence numbers ≥ from, in order. If
// compaction has folded records ≥ from into a snapshot, snap carries that
// snapshot (its Seq is the cursor it covers through) and tail the records
// after it; otherwise snap is nil. It runs on the sender's goroutine,
// never under engine locks.
type CatchUpFunc func(shard int, from int64) (snap *SeqRecord, tail []SeqRecord, err error)

const (
	// queueLen bounds the per-shard in-memory send queue. When a slow link
	// lets a queue fill, it is dropped wholesale and the stream falls back
	// to CatchUp — backpressure never reaches the commit path, by design: a
	// warm standby must not be able to stall the primary.
	queueLen = 1024
	// batchMax caps records per recs frame.
	batchMax = 256
)

// SenderConfig parameterizes a Sender.
type SenderConfig struct {
	// Addr is the follower's replication listen address.
	Addr string
	// Epoch is this primary's replication epoch (≥ 1).
	Epoch int64
	// Shards is the fleet shard count; must match the follower's.
	Shards int
	// CatchUp reads aged-out records from durable storage. Required.
	CatchUp CatchUpFunc
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
	// QueueDrops counts whole-queue spills to CatchUp.
	QueueDrops int64 `json:"queue_drops,omitempty"`
	// LeaseExpired reports the lease gate currently refusing writes.
	LeaseExpired bool `json:"lease_expired,omitempty"`
}

// sendQueue is one shard's bounded live tail. base is the sequence number
// of buf[0]; the queue always holds a contiguous run ending at the
// shard's last committed record.
type sendQueue struct {
	base int64
	buf  []journal.Record
}

// Sender is the primary half of replication: it receives every committed
// journal record via Committed (the server's shard commit hook), streams
// them to the follower in order, and converts the follower's acks into a
// liveness lease. See the package comment for the protocol.
type Sender struct {
	cfg SenderConfig

	mu         sync.Mutex
	queues     []sendQueue
	lastQueued []int64 // per shard, highest seq ever handed to Committed/Seed
	acked      []int64 // per shard, highest seq the follower acknowledged
	conn       net.Conn
	connected  bool
	started    bool
	everAcked  bool
	lastAck    time.Time
	reconnects int64
	drops      int64
	fenced     bool
	fencedBy   int64

	wake chan struct{}
	stop chan struct{}
	done chan struct{}
}

// NewSender builds a sender; call Seed (optional) then Start.
func NewSender(cfg SenderConfig) (*Sender, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("replicate: sender needs ≥ 1 shard, got %d", cfg.Shards)
	}
	if cfg.Epoch < 1 {
		return nil, fmt.Errorf("replicate: sender epoch %d, want ≥ 1", cfg.Epoch)
	}
	if cfg.CatchUp == nil {
		return nil, fmt.Errorf("replicate: sender needs a CatchUp source")
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
		cfg:        cfg,
		queues:     make([]sendQueue, cfg.Shards),
		lastQueued: make([]int64, cfg.Shards),
		acked:      make([]int64, cfg.Shards),
		wake:       make(chan struct{}, 1),
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
	}
	return s, nil
}

// Seed positions each shard's cursor at the sequence number its journal
// already covers (server.Service.ReplicationSeqs at startup), so the sender knows those
// records exist on disk without having seen them through Committed. Call
// before Start.
func (s *Sender) Seed(seqs []int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, seq := range seqs {
		if i >= len(s.lastQueued) || seq <= s.lastQueued[i] {
			continue
		}
		s.lastQueued[i] = seq
		s.queues[i] = sendQueue{base: seq + 1}
	}
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

// Committed is the shard commit hook: rec was journaled as the shard's
// seq-th mutation. It must be cheap and non-blocking — it runs under the
// shard lock — so it only appends to the bounded queue (or drops the
// queue to the CatchUp path when full) and nudges the stream goroutine.
func (s *Sender) Committed(shard int, seq int64, rec journal.Record) {
	s.mu.Lock()
	if shard < 0 || shard >= len(s.queues) {
		s.mu.Unlock()
		return
	}
	q := &s.queues[shard]
	if seq != s.lastQueued[shard]+1 {
		// A gap can only mean the hook and Seed disagree (e.g. records
		// committed before Seed ran); resynchronize through CatchUp.
		*q = sendQueue{base: seq}
		s.drops++
	}
	if len(q.buf) >= queueLen {
		// Full: spill wholesale. Dropping one-by-one would make overflow
		// O(queue) per append inside the commit path; dropping all is
		// O(1) and the disk has everything anyway.
		*q = sendQueue{base: seq}
		s.drops++
	}
	if len(q.buf) == 0 {
		q.base = seq
	}
	q.buf = append(q.buf, rec)
	s.lastQueued[shard] = seq
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
		QueueDrops: s.drops,
	}
	for i := range s.lastQueued {
		if lag := s.lastQueued[i] - s.acked[i]; lag > 0 {
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
	if err := WriteFrame(conn, Frame{T: FrameHello, Epoch: s.cfg.Epoch, Shards: s.cfg.Shards}); err != nil {
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
	if len(f.Next) != s.cfg.Shards {
		return fmt.Errorf("follower tracks %d shards, we run %d — refusing to replicate across configurations", len(f.Next), s.cfg.Shards)
	}
	cursors := append([]int64(nil), f.Next...)

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
			n, err := s.pump(conn, shard, &cursors[shard])
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

// pump ships the next batch of one shard's records, serving from the live
// queue when it covers the cursor and from CatchUp (disk) when it does
// not. Reports whether anything was sent.
func (s *Sender) pump(conn net.Conn, shard int, cursor *int64) (bool, error) {
	s.mu.Lock()
	lastQ := s.lastQueued[shard]
	if *cursor > lastQ+1 {
		s.mu.Unlock()
		return false, fmt.Errorf("shard %d: follower wants seq %d but the primary has committed only %d — the follower is ahead (journals diverged; refusing to replicate)", shard, *cursor, lastQ)
	}
	if *cursor > lastQ {
		s.mu.Unlock()
		return false, nil
	}
	q := &s.queues[shard]
	if len(q.buf) > 0 && q.base <= *cursor {
		off := int(*cursor - q.base)
		n := len(q.buf) - off
		if n > batchMax {
			n = batchMax
		}
		recs := append([]journal.Record(nil), q.buf[off:off+n]...)
		s.mu.Unlock()
		_ = conn.SetWriteDeadline(time.Now().Add(s.deadline()))
		if err := WriteFrame(conn, Frame{T: FrameRecs, Epoch: s.cfg.Epoch, Shard: shard, Seq: *cursor, Recs: recs}); err != nil {
			return false, fmt.Errorf("shard %d: write recs [%d,%d): %w", shard, *cursor, *cursor+int64(n), err)
		}
		*cursor += int64(n)
		return true, nil
	}
	s.mu.Unlock()

	// The queue no longer covers the cursor: read the shard's WAL.
	from := *cursor
	snap, tail, err := s.cfg.CatchUp(shard, from)
	if err != nil {
		return false, fmt.Errorf("shard %d: catch-up from seq %d: %w", shard, from, err)
	}
	sent := false
	if snap != nil && snap.Rec.Seq >= from {
		_ = conn.SetWriteDeadline(time.Now().Add(s.deadline()))
		if err := WriteFrame(conn, Frame{T: FrameSnap, Epoch: s.cfg.Epoch, Shard: shard, Seq: snap.Rec.Seq, Recs: []journal.Record{snap.Rec}}); err != nil {
			return false, fmt.Errorf("shard %d: write snap through seq %d: %w", shard, snap.Rec.Seq, err)
		}
		*cursor = snap.Rec.Seq + 1
		sent = true
	}
	for i := 0; i < len(tail); {
		if tail[i].Seq < *cursor {
			i++
			continue
		}
		if tail[i].Seq != *cursor {
			return false, fmt.Errorf("shard %d: catch-up skipped from seq %d to %d", shard, *cursor, tail[i].Seq)
		}
		n := len(tail) - i
		if n > batchMax {
			n = batchMax
		}
		recs := make([]journal.Record, n)
		for k := 0; k < n; k++ {
			recs[k] = tail[i+k].Rec
		}
		_ = conn.SetWriteDeadline(time.Now().Add(s.deadline()))
		if err := WriteFrame(conn, Frame{T: FrameRecs, Epoch: s.cfg.Epoch, Shard: shard, Seq: *cursor, Recs: recs}); err != nil {
			return false, fmt.Errorf("shard %d: write catch-up recs at seq %d: %w", shard, *cursor, err)
		}
		*cursor += int64(n)
		i += n
		sent = true
	}
	if !sent {
		// Disk had nothing new for this cursor (an unsynced tail still
		// sits only in the dropped queue). Drop the connection; the
		// reconnect backoff gives the WAL time to sync.
		return false, fmt.Errorf("shard %d: cannot serve seq %d from queue or WAL yet", shard, from)
	}
	return sent, nil
}
