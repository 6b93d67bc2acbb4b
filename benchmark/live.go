package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"krad/internal/core"
	"krad/internal/dag"
	"krad/internal/sched"
	"krad/internal/server"
	"krad/internal/sim"
)

// liveResult is the concurrent path's diagnostic: what the hand-stepped
// driver leaves out (the step loop, wakeups, lock contention, sockets).
// A free-running service does a timing-dependent amount of work, so
// these numbers do not repeat and are not gated.
type liveResult struct {
	acceptedPerS  float64
	p50, p99      float64 // ms
	roundsPerKJob float64
	failed        int64
}

// livePass starts the service for real — step loops running, net/http on
// loopback — and submits the input's bodies closed-loop from one
// connection per CPU for at most five seconds (less if --seconds is).
func livePass(w *workloadDef, in *input, workdir string, seconds float64) (liveResult, error) {
	var out liveResult
	dir, err := os.MkdirTemp(workdir, w.name+"-live-")
	if err != nil {
		return out, err
	}
	defer os.RemoveAll(dir)
	svc, err := server.New(w.config(dir, nil))
	if err != nil {
		return out, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return out, err
	}
	srv := &http.Server{Handler: svc.Handler()}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = srv.Serve(ln)
	}()
	svc.Start()

	limit := 5 * time.Second
	if s := time.Duration(seconds * float64(time.Second)); s < limit {
		limit = s
	}
	url := "http://" + ln.Addr().String() + "/v1/jobs/batch"
	clients := runtime.NumCPU()
	samples := make([][]float64, clients)
	var next, accepted, failed atomic.Int64
	deadline := time.Now().Add(limit)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := &http.Client{Transport: &http.Transport{}}
			defer client.CloseIdleConnections()
			for time.Now().Before(deadline) {
				i := int(next.Add(1)) - 1
				if i >= len(in.reqs) {
					return
				}
				t0 := time.Now()
				resp, err := client.Post(url, "application/json", bytes.NewReader(in.reqs[i].body))
				if err != nil {
					failed.Add(1)
					continue
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				samples[c] = append(samples[c], ms(time.Since(t0)))
				if resp.StatusCode != http.StatusCreated {
					failed.Add(1)
					continue
				}
				accepted.Add(int64(in.reqs[i].n))
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	errShutdown := srv.Shutdown(ctx)
	<-served
	st := svc.Stats() // before Close, which drains: rounds so far belong to the stream
	errClose := svc.Close(ctx)
	if errShutdown != nil || errClose != nil {
		return out, fmt.Errorf("live pass shutdown: %v, %v", errShutdown, errClose)
	}

	var all []float64
	for _, s := range samples {
		all = append(all, s...)
	}
	out.acceptedPerS = float64(accepted.Load()) / wall.Seconds()
	out.p50, out.p99 = percentile(all, 50), percentile(all, 99)
	out.failed = failed.Load()
	if st.Journal != nil && accepted.Load() > 0 {
		// Every journal record is an admitted request or one step round.
		rounds := st.Journal.Appended - int64(len(all)) + failed.Load()
		out.roundsPerKJob = 1000 * float64(rounds) / float64(accepted.Load())
	}
	return out, nil
}

// stealPass is the 8-shard hot-key fleet drain of cmd/kradbench
// (steal_bench.go) with stealing on: one placement key hashes 2000 jobs
// onto one shard of eight, and the fleet drains them only by stealing.
// Returns the median drain time of five runs and the jobs moved.
func stealPass() (drainMS, moved float64, err error) {
	const shards, jobs, span = 8, 2000, 4
	var drains []float64
	for i := 0; i < 5; i++ {
		svc, err := server.New(server.Config{
			Sim:          sim.Config{K: 1, Caps: []int{1}, Scheduler: core.NewKRAD(1), Pick: dag.PickFIFO},
			Shards:       shards,
			NewScheduler: func() sched.Scheduler { return core.NewKRAD(1) },
			Placement:    server.PlaceHash,
			MaxInFlight:  2 * shards * jobs,
			Steal:        true,
		})
		if err != nil {
			return 0, 0, err
		}
		for j := 0; j < jobs; j++ {
			spec := sim.JobSpec{Graph: dag.UniformChain(1, span, 1), Release: int64(j + 1)}
			if _, err := svc.SubmitKeyed("hot", spec); err != nil {
				return 0, 0, err
			}
		}
		start := time.Now()
		svc.Start()
		for svc.Stats().Completed < jobs {
			if err := svc.Err(); err != nil {
				return 0, 0, err
			}
			if time.Since(start) > 60*time.Second {
				return 0, 0, fmt.Errorf("steal pass: fleet did not drain in 60 s")
			}
			time.Sleep(200 * time.Microsecond)
		}
		drains = append(drains, ms(time.Since(start)))
		if st := svc.Stats().Steal; st != nil {
			moved = float64(st.Stolen)
		}
		if err := closeService(svc); err != nil {
			return 0, 0, err
		}
	}
	return median(drains), moved, nil
}
