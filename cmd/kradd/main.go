// Command kradd runs the online scheduler service: a long-lived daemon
// around internal/server that admits jobs over HTTP while the virtual
// clock runs, streams per-step events, and exposes Prometheus metrics.
//
// Endpoints (see internal/server for the wire formats):
//
//	POST   /v1/jobs       submit a dag-encoded job          → 201 {id, release, shard}
//	POST   /v1/jobs/batch submit many jobs atomically       → 201 {ids, shard}
//	GET    /v1/jobs/{id}  job lifecycle status
//	DELETE /v1/jobs/{id}  cancel a pending/active job
//	GET    /v1/events     SSE stream of step events (all shards)
//	GET    /metrics       Prometheus text exposition (fleet + per-shard)
//	GET    /healthz       liveness + aggregated service stats (always 200)
//	GET    /readyz        readiness (503 while replaying, draining or
//	                      journal-degraded)
//
// Usage:
//
//	kradd -addr :8080 -caps 4,4,4 -step 50ms -queue 256
//	kradd -addr :8080 -shards 4 -placement hash -queue 1024
//	kradd -addr :8080 -journal-dir /var/lib/kradd -fsync always
//	kradd -addr :8080 -fair-config queues.conf
//
// With -journal-dir set, every committed mutation is write-ahead-journaled
// (one file per shard) and replayed on startup, so a crash or restart
// loses nothing that was acknowledged: job IDs, virtual time and scheduler
// state come back bit-identical. -fsync picks the durability/latency
// trade-off (always, interval, never); -snapshot-every bounds replay time
// by compacting each journal to one snapshot record at idle points. A
// journal the daemon cannot replay (corrupt interior record, version
// mismatch, wrong shard count) is a fatal startup error — kradd exits
// non-zero naming the file, offset and record rather than serving silently
// forgotten state. The listener comes up before replay, answering
// /healthz 200 and /readyz 503 so orchestrators keep the pod alive while
// long replays run.
//
// With -shards N the daemon runs N independent simulation engines behind
// one admission front-end; -placement picks how submissions are routed
// (round-robin, hash on the X-Krad-Placement-Key header, least-loaded).
// -caps and -queue keep their meaning: caps describe each shard's
// machine, and the queue bound is shared across the fleet.
//
// With -fairness (or -fair-config) submissions are gated by multi-tenant
// fair share: the X-Krad-Tenant header resolves to a queue-tree leaf, the
// admission bound is divided over the active leaves by deserved quota and
// over-quota weight, and an over-quota tenant is shed with 429 +
// Retry-After while under-quota tenants keep admitting. -fair-config
// names a queue-tree file (halflife/default/queue lines — see README);
// without one every tenant header gets a dynamically created equal-weight
// leaf. The file's halflife line sets the usage decay half-life in
// virtual steps (fairshare.DefaultHalfLife without one). Tenant identity
// and usage ride the journal, so a fairness-enabled daemon restarts with
// its ledger intact — and refuses to replay a fairness-tagged journal
// with fairness off (or under a different half-life) rather than silently
// dropping tenant state.
//
// With -replicate-to, every committed journal record additionally streams
// to a warm-standby kradd started with -follow (both ends need
// -journal-dir and identical engine configuration). The follower applies
// the records through the same replay path a crash-restart uses, so its
// engines track the primary bit-identically; it answers /readyz 503
// "following" until promoted by POST /v1/promote or, with -promote-after,
// by primary-silence timeout. Promotion bumps the replication epoch and
// fences the old primary: a deposed primary that reconnects (or, with
// -lease, merely loses its follower's acks) refuses admissions rather
// than diverge. See internal/replicate for the protocol and the README's
// "Replication & failover" section for the operational recipe.
//
// With -step 0 the clock free-runs: steps execute as fast as the hardware
// allows whenever work is queued, so submitted jobs drain immediately. A
// positive -step paces the virtual clock against wall time, which is what
// makes the event stream watchable.
//
// SIGINT/SIGTERM trigger a graceful drain: admission stops, in-flight
// jobs run to completion (bounded by -drain), then the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"krad/internal/core"
	"krad/internal/fairshare"
	"krad/internal/journal"
	"krad/internal/replicate"
	"krad/internal/sched"
	"krad/internal/server"
	"krad/internal/sim"
)

// swapHandler atomically swaps the bootstrap handler for the real service
// handler once startup (journal replay included) completes.
type swapHandler struct{ h atomic.Value }

func newSwapHandler(h http.Handler) *swapHandler {
	s := &swapHandler{}
	s.h.Store(h)
	return s
}

func (s *swapHandler) swap(h http.Handler) { s.h.Store(h) }

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.h.Load().(http.Handler).ServeHTTP(w, r)
}

// bootstrapHandler serves while the journal replays: alive but not ready.
func bootstrapHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"status":"starting"}` + "\n"))
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = w.Write([]byte(`{"status":"unavailable","reason":"replaying journal"}` + "\n"))
	})
	return mux
}

// options holds every kradd flag's value.
type options struct {
	addr    string
	caps    string
	step    time.Duration
	queue   int
	retire  bool
	drain   time.Duration
	shard   int
	place   string
	journal string
	fsync   string
	snap    int64
	pprof   bool
	fair    bool
	fairCfg string
	repTo   string
	follow  string
	epoch   int64
	lease   time.Duration
	repHB   time.Duration
	promote time.Duration
	steal   bool
}

// registerFlags declares kradd's flags on fs, bound to the returned options.
func registerFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.StringVar(&o.addr, "addr", ":8080", "HTTP listen address")
	fs.StringVar(&o.caps, "caps", "4,4,4", "per-category processor counts, comma-separated; their number is K")
	fs.DurationVar(&o.step, "step", 0, "wall-clock duration of one virtual step (0 = free-running)")
	fs.IntVar(&o.queue, "queue", 256, "admission bound: max in-flight (pending + active) jobs")
	fs.BoolVar(&o.retire, "retire-done", false, "recycle engine state of terminal jobs; statuses served from the ID index (bounds memory for long-running, high-volume daemons)")
	fs.DurationVar(&o.drain, "drain", 30*time.Second, "max time to drain in-flight jobs at shutdown")
	fs.IntVar(&o.shard, "shards", 1, "number of independent engine shards")
	fs.StringVar(&o.place, "placement", server.PlaceRoundRobin, "shard placement policy: round-robin, hash, least-loaded")
	fs.StringVar(&o.journal, "journal-dir", "", "write-ahead journal directory (empty = no durability)")
	fs.StringVar(&o.fsync, "fsync", "always", "journal fsync policy: always, interval, never")
	fs.Int64Var(&o.snap, "snapshot-every", 10000, "compact a shard journal after this many records at an idle point (0 = never)")
	fs.BoolVar(&o.pprof, "pprof", false, "expose net/http/pprof profiling under /debug/pprof/")
	fs.BoolVar(&o.fair, "fairness", false, "gate admission by multi-tenant fair share (X-Krad-Tenant header)")
	fs.StringVar(&o.fairCfg, "fair-config", "", "queue-tree config file (implies -fairness): halflife, default and queue lines")
	fs.StringVar(&o.repTo, "replicate-to", "", "primary: stream committed journal records to a follower kradd's -follow address (requires -journal-dir)")
	fs.StringVar(&o.follow, "follow", "", "follower: run as a warm standby, accepting a primary's replication stream on this address (requires -journal-dir)")
	fs.Int64Var(&o.epoch, "epoch", 1, "replication epoch; restart a deposed primary with a value above the promoted follower's to take leadership back")
	fs.DurationVar(&o.lease, "lease", 0, "primary: refuse admissions once the follower has been silent this long (0 = no lease gating); set strictly below the follower's -promote-after")
	fs.DurationVar(&o.repHB, "replicate-heartbeat", time.Second, "primary: idle keepalive interval on the replication stream")
	fs.DurationVar(&o.promote, "promote-after", 0, "follower: self-promote after this much primary silence, once a primary has connected (0 = manual POST /v1/promote only)")
	fs.BoolVar(&o.steal, "steal", false, "cross-shard work stealing: idle shards pull pending jobs off the deepest peer (journaled; incompatible with -fairness)")
	return o
}

// dependents lists the flags that only mean something inside a mode another
// flag turns on (any one of needs, non-empty); checkDependents refuses one
// set without its mode, where it would otherwise be silently ignored.
var dependents = []struct {
	name  string
	needs []string
}{
	{"fsync", []string{"journal-dir"}},
	{"snapshot-every", []string{"journal-dir"}},
	{"lease", []string{"replicate-to"}},
	{"replicate-heartbeat", []string{"replicate-to"}},
	{"promote-after", []string{"follow"}},
	{"epoch", []string{"replicate-to", "follow"}},
}

// checkDependents walks the flags set on fs's command line and returns an
// error naming the first dependent flag whose mode is off.
func checkDependents(fs *flag.FlagSet) error {
	var err error
	fs.Visit(func(f *flag.Flag) {
		for _, d := range dependents {
			if err != nil || d.name != f.Name {
				continue
			}
			on := false
			for _, mode := range d.needs {
				on = on || fs.Lookup(mode).Value.String() != ""
			}
			if !on {
				err = fmt.Errorf("-%s does nothing without -%s", d.name, strings.Join(d.needs, " or -"))
			}
		}
	})
	return err
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("kradd: ")
	o := registerFlags(flag.CommandLine)
	flag.Parse()

	caps, err := parseInts(o.caps)
	if err != nil {
		log.Fatalf("-caps must be a comma-separated list of integers: %v", err)
	}
	k := len(caps)
	if err := checkDependents(flag.CommandLine); err != nil {
		log.Fatal(err)
	}
	var journalCfg *server.JournalConfig
	if o.journal != "" {
		policy, err := journal.ParseSyncPolicy(o.fsync)
		if err != nil {
			log.Fatal(err)
		}
		journalCfg = &server.JournalConfig{
			Dir:           o.journal,
			Sync:          policy,
			SnapshotEvery: o.snap,
		}
	}
	if o.repTo != "" && o.follow != "" {
		log.Fatal("-replicate-to and -follow are mutually exclusive: a daemon is the primary or the standby, not both")
	}
	if (o.repTo != "" || o.follow != "") && o.journal == "" {
		log.Fatal("replication requires -journal-dir: the journal is both what the primary ships and the durable apply log (follower)")
	}
	var fairCfg *fairshare.Config
	if o.fair || o.fairCfg != "" {
		var c fairshare.Config
		if o.fairCfg != "" {
			f, err := os.Open(o.fairCfg)
			if err != nil {
				log.Fatal(err)
			}
			c, err = fairshare.ParseConfig(f)
			_ = f.Close()
			if err != nil {
				log.Fatalf("-fair-config %s: %v", o.fairCfg, err)
			}
		}
		fairCfg = &c
		hl := c.HalfLife
		if hl == 0 {
			hl = fairshare.DefaultHalfLife
		}
		log.Printf("fair-share admission enabled (half-life=%d steps, config=%q)", hl, o.fairCfg)
	}

	// The listener comes up before the service: journal replay can take a
	// while, and an orchestrator probing /healthz must see the process
	// alive (200) but not ready (/readyz 503) until replay finishes. The
	// bootstrap handler is swapped for the real one once New returns.
	handler := newSwapHandler(bootstrapHandler())
	var root http.Handler = handler
	if o.pprof {
		// The profiling endpoints wrap the swap handler so they answer even
		// during journal replay — profiling a slow replay is exactly when
		// they are wanted. Off by default: they expose stacks and heap
		// contents, so enabling them is an explicit operator decision.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", handler)
		root = mux
		log.Printf("pprof enabled at /debug/pprof/")
	}
	srv := &http.Server{
		Addr:              o.addr,
		Handler:           root,
		ReadHeaderTimeout: 10 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()

	if journalCfg != nil {
		log.Printf("replaying journal from %s (fsync=%s snapshot-every=%d)", journalCfg.Dir, journalCfg.Sync, journalCfg.SnapshotEvery)
	}
	svc, err := server.New(server.Config{
		// Tasks are picked FIFO (the zero Pick): the paper's bounds hold for
		// every pick policy, and kradsim is the tool that compares them.
		Sim:         sim.Config{K: k, Caps: caps, ValidateAllotments: true},
		MaxInFlight: o.queue,
		StepEvery:   o.step,
		Shards:      o.shard,
		Placement:   o.place,
		// One K-RAD per shard: it carries per-engine state. Moldable jobs
		// pin processors non-preemptively, so it is floor-respecting; for
		// unit-task workloads the wrapper is the identity, and it
		// snapshots/restores byte-identically to the unwrapped scheduler.
		NewScheduler: func() sched.Scheduler { return sched.WithFloors(core.NewKRAD(k)) },
		Journal:      journalCfg,
		Fairness:     fairCfg,
		Follower:     o.follow != "",
		RetireDone:   o.retire,
		Steal:        o.steal,
	})
	if err != nil {
		// A journal that cannot be replayed (corrupt record, version
		// mismatch, shard-count mismatch) lands here: exit non-zero with
		// the located error instead of serving forgotten state.
		log.Fatal(err)
	}

	// Replication wiring: the sender ships each shard's WAL and attaches
	// before Start and before the handler swap, so every committed record
	// wakes it; attaching reports what the journals already hold (replayed
	// history, the fairness head).
	var sender *replicate.Sender
	var receiver *replicate.Receiver
	if o.repTo != "" {
		sender, err = replicate.NewSender(replicate.SenderConfig{
			Addr:      o.repTo,
			Epoch:     o.epoch,
			WAL:       svc.JournalPaths(),
			Heartbeat: o.repHB,
			Lease:     o.lease,
			Logf:      log.Printf,
		})
		if err != nil {
			log.Fatal(err)
		}
		svc.SetReplicator(sender)
		svc.SetReplicationStats(func() *server.ReplicationStats {
			st := sender.Stats()
			return &server.ReplicationStats{Role: "primary", Primary: &st}
		})
		sender.Start()
		log.Printf("replicating to %s (epoch %d, lease %v, heartbeat %v)", o.repTo, o.epoch, o.lease, o.repHB)
	}
	if o.follow != "" {
		ln, err := net.Listen("tcp", o.follow)
		if err != nil {
			log.Fatal(err)
		}
		receiver, err = replicate.NewReceiver(replicate.ReceiverConfig{
			Listener:     ln,
			Applier:      svc,
			Epoch:        o.epoch,
			PromoteAfter: o.promote,
			OnPromote: func(epoch int64) {
				svc.Promote()
				log.Printf("promoted to primary at epoch %d: step loops started, admissions open", epoch)
			},
			Logf: log.Printf,
		})
		if err != nil {
			log.Fatal(err)
		}
		svc.SetPromote(receiver.Promote)
		svc.SetReplicationStats(func() *server.ReplicationStats {
			st := receiver.Stats()
			role := "follower"
			if promoted, _ := receiver.Promoted(); promoted {
				role = "primary"
			}
			return &server.ReplicationStats{Role: role, Follower: &st}
		})
		log.Printf("following: replication listener on %s (epoch %d, promote-after %v)", ln.Addr(), o.epoch, o.promote)
	}

	svc.Start()
	handler.swap(svc.Handler())

	ctx, cancel := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer cancel()

	log.Printf("listening on %s (K=%d caps=%v step=%v queue=%d shards=%d placement=%s)",
		o.addr, k, caps, o.step, o.queue, o.shard, o.place)

	select {
	case err := <-errCh:
		log.Fatal(err)
	case <-ctx.Done():
	}

	log.Printf("shutting down: draining in-flight jobs (up to %v)", o.drain)
	drainCtx, stop := context.WithTimeout(context.Background(), o.drain)
	defer stop()
	// Close first so the drain happens while the HTTP surface still
	// answers status queries; then shut the listener down. The sender
	// stops after the drain so the final records stream out; the receiver
	// closes without promoting — a restarting standby resumes following.
	closeErr := svc.Close(drainCtx)
	if closeErr != nil {
		log.Printf("drain: %v", closeErr)
	}
	if sender != nil {
		sender.Stop()
	}
	if receiver != nil {
		receiver.Close()
	}
	if err := srv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("http shutdown: %v", err)
	}
	if err := svc.Err(); err != nil {
		log.Fatalf("step loop failed: %v", err)
	}
	if closeErr != nil && !errors.Is(closeErr, context.DeadlineExceeded) {
		// A failed final journal flush means acknowledged tail records may
		// not be durable: exit non-zero so orchestrators notice.
		log.Fatalf("journal close failed — acknowledged tail records may not be durable: %v", closeErr)
	}
	log.Print("bye")
	_ = os.Stdout.Sync()
}

func parseInts(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
