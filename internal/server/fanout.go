package server

import (
	"sync"
	"sync/atomic"
)

// fanout is the pool-wide event bus: every shard's step loop publishes
// into it, every subscriber reads a merged stream. Slow subscribers lose
// events (counted) rather than ever blocking a step loop.
type fanout struct {
	buf int
	// n counts subscribers, written under mu and read without it: a step
	// builds its event only when someone can receive it.
	n atomic.Int32

	mu      sync.Mutex
	subs    map[int]chan Event
	next    int
	closed  bool
	dropped int64
}

func newFanout(buf int) *fanout {
	return &fanout{buf: buf, subs: make(map[int]chan Event)}
}

// subscribe registers a listener. The returned cancel function
// unsubscribes and closes the channel; the channel also closes when the
// fanout shuts down.
func (f *fanout) subscribe() (<-chan Event, func()) {
	ch := make(chan Event, f.buf)
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		close(ch)
		return ch, func() {}
	}
	id := f.next
	f.next++
	f.subs[id] = ch
	f.n.Add(1)
	f.mu.Unlock()
	cancel := func() {
		f.mu.Lock()
		if c, ok := f.subs[id]; ok {
			delete(f.subs, id)
			f.n.Add(-1)
			close(c)
		}
		f.mu.Unlock()
	}
	return ch, cancel
}

// subscribed reports whether anyone is subscribed. A subscription that
// lands after it answered false misses that one event, as it would have
// had it landed after the publish.
func (f *fanout) subscribed() bool { return f.n.Load() != 0 }

// publish fans an event out to every subscriber, dropping (and counting)
// on full buffers.
func (f *fanout) publish(ev Event) {
	f.mu.Lock()
	for _, ch := range f.subs {
		select {
		case ch <- ev:
		default:
			f.dropped++
		}
	}
	f.mu.Unlock()
}

// stats reports the subscriber count and cumulative drops.
func (f *fanout) stats() (subscribers int, dropped int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.subs), f.dropped
}

// close closes every subscriber channel and refuses new subscriptions.
func (f *fanout) close() {
	f.mu.Lock()
	f.closed = true
	for id, ch := range f.subs {
		delete(f.subs, id)
		close(ch)
	}
	f.n.Store(0)
	f.mu.Unlock()
}
