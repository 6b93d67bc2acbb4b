package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"krad/internal/core"
	"krad/internal/dag"
	"krad/internal/sched"
	"krad/internal/sim"
)

// BenchmarkShardedStepThroughput measures aggregate step throughput as
// the shard count grows, with a fixed workload per shard: each shard gets
// the same job set, so per-engine work is constant and any speedup is the
// step loops running on separate cores. On a 4+ core machine, shards=4
// should sustain well over 2× the aggregate steps/s of shards=1.
func BenchmarkShardedStepThroughput(b *testing.B) {
	const jobsPerShard = 24
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			var stepsPerSec float64
			for i := 0; i < b.N; i++ {
				cfg := Config{
					Sim: sim.Config{
						K: 2, Caps: []int{2, 2}, Pick: dag.PickFIFO,
					},
					Shards:       shards,
					NewScheduler: func() sched.Scheduler { return core.NewKRAD(2) },
					MaxInFlight:  shards * jobsPerShard,
				}
				svc, err := New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				// One batch per shard (round-robin routes whole batches),
				// admitted before the clocks start so the drain is pure
				// stepping.
				specs := make([]sim.JobSpec, jobsPerShard)
				for j := range specs {
					specs[j] = sim.JobSpec{Graph: dag.RoundRobinChain(2, 30)}
				}
				for s := 0; s < shards; s++ {
					if _, err := svc.SubmitBatch("", specs); err != nil {
						b.Fatal(err)
					}
				}
				total := int64(shards * jobsPerShard)
				start := time.Now()
				svc.Start()
				for svc.Stats().Completed < total {
					time.Sleep(100 * time.Microsecond)
				}
				elapsed := time.Since(start)
				st := svc.Stats()
				stepsPerSec += float64(st.Steps) / elapsed.Seconds()
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				if err := svc.Close(ctx); err != nil {
					b.Fatal(err)
				}
				cancel()
			}
			b.ReportMetric(stepsPerSec/float64(b.N), "steps/s")
		})
	}
}

// BenchmarkAdmitBurst measures the admission path alone — the clock is
// never started, so the numbers isolate what AdmitBatch buys: one lock
// acquisition and one wake per burst instead of one per job.
func BenchmarkAdmitBurst(b *testing.B) {
	const burst = 64
	mk := func(b *testing.B) (*Service, []sim.JobSpec) {
		b.Helper()
		cfg := testConfig(2, 2, 2)
		cfg.MaxInFlight = 1 << 30
		svc, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		specs := make([]sim.JobSpec, burst)
		for i := range specs {
			specs[i] = sim.JobSpec{Graph: dag.ForkJoin(2, 4, 1, 2, 1)}
		}
		return svc, specs
	}

	b.Run("serial", func(b *testing.B) {
		svc, specs := mk(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, s := range specs {
				if _, err := svc.Submit(s); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		svc, specs := mk(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := svc.SubmitBatch("", specs); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchSubmitService builds an unstarted single-shard service sized for
// submit-path benchmarks: RetireDone keeps per-job state recyclable and
// the in-flight bound never bites.
func benchSubmitService(b *testing.B) *Service {
	b.Helper()
	cfg := testConfig(2, 4, 4)
	cfg.RetireDone = true
	cfg.MaxInFlight = 1 << 30
	svc, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = svc.Close(context.Background()) })
	return svc
}

// BenchmarkHTTPSubmit measures the submit handler end to end (no network:
// handler invoked directly) for both the small rigid wire form and a wide
// DAG body.
func BenchmarkHTTPSubmit(b *testing.B) {
	rigid := []byte(`{"rigid":{"k":2,"cat":1,"procs":2,"steps":3}}`)
	graphBody, err := json.Marshal(submitRequest{Graph: dag.ForkJoin(2, 16, 1, 2, 1)})
	if err != nil {
		b.Fatal(err)
	}
	for _, body := range []struct {
		name string
		body []byte
	}{{"rigid", rigid}, {"dag16", graphBody}} {
		b.Run(body.name, func(b *testing.B) {
			svc := benchSubmitService(b)
			rec := httptest.NewRecorder()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				req := httptest.NewRequest("POST", "/v1/jobs", bytes.NewReader(body.body))
				rec.Body.Reset()
				svc.handleSubmit(rec, req)
				if rec.Code != http.StatusCreated {
					b.Fatalf("status %d: %s", rec.Code, rec.Body)
				}
			}
		})
	}
}
