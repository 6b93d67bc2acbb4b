package replicate

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"krad/internal/journal"
)

// Applier is the follower-side state machine the Receiver drives — in
// practice the server.Service in follower mode. Apply and ApplySnap are
// called strictly in sequence order per shard and never concurrently
// (the receiver serializes across connections); an error refuses the
// record, which withholds the ack and drops the connection.
type Applier interface {
	// Shape is the follower's fleet shape, which a primary's must equal.
	Shape() journal.Shape
	// NextSeqs reports, per shard, the next sequence number the follower
	// needs (applied-through + 1).
	NextSeqs() []int64
	// ApplyReplicated applies one committed record as the shard's seq-th
	// mutation: journal it, then replay it through the engine.
	ApplyReplicated(shard int, seq int64, rec journal.Record) error
	// ApplyReplicatedSnap resets the shard to a snapshot covering
	// through rec.Seq (compaction overtook this follower).
	ApplyReplicatedSnap(shard int, rec journal.Record) error
}

// ReceiverConfig parameterizes a Receiver.
type ReceiverConfig struct {
	// Listener accepts primary connections; the Receiver owns and closes
	// it. Required.
	Listener net.Listener
	// Applier consumes the stream. Required.
	Applier Applier
	// Epoch is this node's durable epoch: the follower records any higher
	// epoch a primary presents before acknowledging it, and promotion
	// records a move past everything seen, a fence included. Required.
	Epoch *EpochFile
	// PromoteAfter, when positive, self-promotes the follower once a
	// primary has been silent for this long — after having connected at
	// least once, so a follower booting before its primary does not
	// instantly crown itself. Must be configured strictly above the
	// primary's lease for split-brain safety. 0 means manual promotion
	// only (POST /v1/promote).
	PromoteAfter time.Duration
	// OnPromote runs exactly once, synchronously, when the follower
	// promotes (manually or by timeout), with the new epoch, once that
	// epoch is on disk.
	OnPromote func(epoch int64)
	// Logf receives lifecycle messages; nil discards them.
	Logf func(format string, args ...any)
}

// ReceiverStats is a point-in-time replication summary of the follower
// side.
type ReceiverStats struct {
	Epoch    int64 `json:"epoch"`
	Promoted bool  `json:"promoted,omitempty"`
	// Connected reports a live primary stream; Connects counts accepted
	// handshakes.
	Connected bool  `json:"connected"`
	Connects  int64 `json:"connects"`
	// Applied counts records applied since start; Snaps counts snapshot
	// resets.
	Applied int64 `json:"applied"`
	Snaps   int64 `json:"snaps,omitempty"`
	// SilenceMS is the time since the last primary frame, in
	// milliseconds (-1 before any connection).
	SilenceMS int64 `json:"silence_ms"`
}

// Receiver is the follower half of replication: it accepts a primary's
// stream, applies records through the Applier in order, acks, and owns
// the promotion decision. See the package comment for the protocol.
type Receiver struct {
	cfg   ReceiverConfig
	shape journal.Shape // the Applier's, read once

	mu        sync.Mutex
	promoted  bool
	active    net.Conn // the connection currently allowed to apply
	connects  int64
	applied   int64
	snaps     int64
	lastFrame time.Time
	ever      bool
	closed    bool

	done    chan struct{}  // closed when the accept loop exits
	streams sync.WaitGroup // attached streams, which may still apply
}

// NewReceiver builds a receiver and starts accepting.
func NewReceiver(cfg ReceiverConfig) (*Receiver, error) {
	if cfg.Listener == nil {
		return nil, fmt.Errorf("replicate: receiver needs a listener")
	}
	if cfg.Applier == nil {
		return nil, fmt.Errorf("replicate: receiver needs an applier")
	}
	if cfg.Epoch == nil {
		return nil, fmt.Errorf("replicate: receiver needs an epoch file")
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	r := &Receiver{cfg: cfg, shape: cfg.Applier.Shape(), done: make(chan struct{})}
	go r.acceptLoop()
	if cfg.PromoteAfter > 0 {
		go r.promoteLoop()
	}
	return r, nil
}

// Close stops accepting, tears down the active stream and waits until no
// record is being applied, so none applies after it returns. It does not
// promote.
func (r *Receiver) Close() {
	r.mu.Lock()
	r.closed = true
	conn := r.active
	r.mu.Unlock()
	_ = r.cfg.Listener.Close()
	if conn != nil {
		_ = conn.Close()
	}
	<-r.done
	r.streams.Wait()
}

// Promote flips the follower to primary: record an epoch past everything
// seen, fence the current primary's stream if one is attached, and run
// OnPromote. Idempotent — later calls return the promoted epoch without
// side effects. If the epoch cannot be recorded the node stays a follower
// and Promote returns the error. The caller is responsible for actually
// starting to serve (server.Service.Follow wraps OnPromote to do so).
func (r *Receiver) Promote() (int64, error) {
	r.mu.Lock()
	if r.promoted {
		r.mu.Unlock()
		return r.cfg.Epoch.Current(), nil
	}
	epoch, err := r.cfg.Epoch.Promote()
	if err != nil {
		r.mu.Unlock()
		return 0, err
	}
	r.promoted = true
	conn := r.active
	r.active = nil
	r.mu.Unlock()
	r.cfg.Logf("replicate: promoting to primary at epoch %d", epoch)
	if conn != nil {
		// Best-effort synchronous fence so a live deposed primary learns
		// immediately; its lease expiry is the backstop if this write is
		// lost.
		_ = conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
		_ = WriteFrame(conn, Frame{T: FrameFence, Epoch: epoch})
		_ = conn.Close()
	}
	if r.cfg.OnPromote != nil {
		r.cfg.OnPromote(epoch)
	}
	return epoch, nil
}

// Stats snapshots the receiver.
func (r *Receiver) Stats() ReceiverStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := ReceiverStats{
		Epoch:     r.cfg.Epoch.Current(),
		Promoted:  r.promoted,
		Connected: r.active != nil,
		Connects:  r.connects,
		Applied:   r.applied,
		Snaps:     r.snaps,
		SilenceMS: -1,
	}
	if r.ever {
		st.SilenceMS = time.Since(r.lastFrame).Milliseconds()
	}
	return st
}

func (r *Receiver) acceptLoop() {
	defer close(r.done)
	for {
		conn, err := r.cfg.Listener.Accept()
		if err != nil {
			r.mu.Lock()
			closed := r.closed
			r.mu.Unlock()
			if closed {
				return
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			r.cfg.Logf("replicate: accept: %v", err)
			time.Sleep(50 * time.Millisecond)
			continue
		}
		go r.handle(conn)
	}
}

// promoteLoop self-promotes after PromoteAfter of primary silence, once a
// primary has connected at least once.
func (r *Receiver) promoteLoop() {
	tick := time.NewTicker(r.cfg.PromoteAfter / 4)
	defer tick.Stop()
	for {
		select {
		case <-r.done:
			return
		case <-tick.C:
		}
		r.mu.Lock()
		fire := r.ever && !r.promoted && !r.closed && time.Since(r.lastFrame) > r.cfg.PromoteAfter
		silence := time.Since(r.lastFrame)
		r.mu.Unlock()
		if fire {
			r.cfg.Logf("replicate: no primary frames for %v (promote-after %v); assuming primary loss", silence.Round(time.Millisecond), r.cfg.PromoteAfter)
			if _, err := r.Promote(); err != nil {
				r.cfg.Logf("replicate: self-promotion refused, still following: %v", err)
				continue
			}
			return
		}
	}
}

// readDeadline bounds how long a silent connection may hold resources.
func (r *Receiver) readDeadline() time.Duration {
	if r.cfg.PromoteAfter > 0 {
		return r.cfg.PromoteAfter
	}
	return time.Minute
}

// handle runs one primary connection through handshake and stream.
func (r *Receiver) handle(conn net.Conn) {
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(r.readDeadline()))
	br := bufio.NewReader(conn)
	if err := ReadMagic(br); err != nil {
		r.cfg.Logf("replicate: %s: bad magic: %v", conn.RemoteAddr(), err)
		return
	}
	hello, err := ReadFrame(br)
	if err != nil || hello.T != FrameHello {
		r.cfg.Logf("replicate: %s: bad hello (%v)", conn.RemoteAddr(), err)
		return
	}

	shapeErr := hello.Shape.Compare(r.shape, "primary", "follower")

	r.mu.Lock()
	epoch := r.cfg.Epoch.Current()
	switch {
	case r.closed:
		r.mu.Unlock()
		return
	case r.promoted || hello.Epoch < epoch:
		// A deposed primary (or one from a past epoch): fence it so it
		// stops admitting, never ack it.
		r.mu.Unlock()
		r.cfg.Logf("replicate: fencing %s (its epoch %d, ours %d)", conn.RemoteAddr(), hello.Epoch, epoch)
		_ = WriteMagic(conn)
		_ = WriteFrame(conn, Frame{T: FrameFence, Epoch: epoch})
		return
	case shapeErr != nil:
		// Refused, not adopted: this node's journals were written on its
		// own shape. The primary hears that shape, so it can say why too.
		r.mu.Unlock()
		r.cfg.Logf("replicate: refusing stream from %s: shape mismatch: %v", conn.RemoteAddr(), shapeErr)
		_ = WriteMagic(conn)
		_ = WriteFrame(conn, Frame{T: FrameHelloAck, Epoch: epoch, Shape: &r.shape, Next: r.cfg.Applier.NextSeqs()})
		return
	}
	// The adopted epoch is on disk before the hello-ack: a restart must
	// still fence whatever this primary deposed.
	if err := r.cfg.Epoch.Adopt(hello.Epoch); err != nil {
		r.mu.Unlock()
		r.cfg.Logf("replicate: %s: refusing stream: %v", conn.RemoteAddr(), err)
		return
	}
	epoch = hello.Epoch
	if r.active != nil {
		// A newer primary connection replaces the old stream (e.g. the
		// primary re-dialed before its dead conn timed out here).
		_ = r.active.Close()
	}
	r.active = conn
	r.connects++
	r.ever = true
	r.lastFrame = time.Now()
	// Added under r.mu while not closed, so Close's Wait counts it.
	r.streams.Add(1)
	defer r.streams.Done()
	r.mu.Unlock()

	drop := func() {
		r.mu.Lock()
		if r.active == conn {
			r.active = nil
		}
		r.mu.Unlock()
	}
	defer drop()

	if err := WriteMagic(conn); err != nil {
		return
	}
	ack := Frame{T: FrameHelloAck, Epoch: epoch, Shape: &r.shape, Next: r.cfg.Applier.NextSeqs()}
	if err := WriteFrame(conn, ack); err != nil {
		return
	}
	r.cfg.Logf("replicate: primary %s attached (epoch %d, cursors %v)", conn.RemoteAddr(), hello.Epoch, ack.Next)

	for {
		_ = conn.SetReadDeadline(time.Now().Add(r.readDeadline()))
		f, err := ReadFrame(br)
		if err != nil {
			r.cfg.Logf("replicate: stream from %s ended: %v", conn.RemoteAddr(), err)
			return
		}
		r.mu.Lock()
		if r.active != conn || r.promoted || r.closed {
			r.mu.Unlock()
			return
		}
		r.lastFrame = time.Now()
		epoch = r.cfg.Epoch.Current()
		r.mu.Unlock()
		if f.Epoch < epoch {
			_ = WriteFrame(conn, Frame{T: FrameFence, Epoch: epoch})
			return
		}

		switch f.T {
		case FrameHeartbeat:
		case FrameRecs:
			if f.Shard >= r.shape.Shards {
				r.cfg.Logf("replicate: %s: recs for shard %d of %d", conn.RemoteAddr(), f.Shard, r.shape.Shards)
				return
			}
			for i, rec := range f.Recs {
				seq := f.Seq + int64(i)
				if err := r.cfg.Applier.ApplyReplicated(f.Shard, seq, rec); err != nil {
					r.cfg.Logf("replicate: apply shard %d seq %d: %v", f.Shard, seq, err)
					return
				}
				r.mu.Lock()
				r.applied++
				r.mu.Unlock()
			}
		case FrameSnap:
			if f.Shard >= r.shape.Shards {
				r.cfg.Logf("replicate: %s: snap for shard %d of %d", conn.RemoteAddr(), f.Shard, r.shape.Shards)
				return
			}
			if err := r.cfg.Applier.ApplyReplicatedSnap(f.Shard, f.Recs[0]); err != nil {
				r.cfg.Logf("replicate: apply snap shard %d through seq %d: %v", f.Shard, f.Seq, err)
				return
			}
			r.mu.Lock()
			r.applied++
			r.snaps++
			r.mu.Unlock()
		default:
			r.cfg.Logf("replicate: %s: unexpected %q frame on an attached stream", conn.RemoteAddr(), f.T)
			return
		}
		// Ack every frame — applied batches advance the cursors,
		// heartbeat acks renew the primary's lease.
		_ = conn.SetWriteDeadline(time.Now().Add(r.readDeadline()))
		if err := WriteFrame(conn, Frame{T: FrameAck, Epoch: epoch, Next: r.cfg.Applier.NextSeqs()}); err != nil {
			return
		}
	}
}
