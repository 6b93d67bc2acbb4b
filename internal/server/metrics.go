package server

import (
	"fmt"
	"io"
	"strings"

	"krad/internal/metrics"
	"krad/internal/sim"
)

// WriteMetrics renders the service's state in the Prometheus text
// exposition format (version 0.0.4). Fleet-wide families keep the
// pre-sharding names (counters summed, the response histogram merged
// bucket-by-bucket across shards, utilization weighted by per-shard
// elapsed time); per-shard krad_shard_* series labelled {shard="i"}
// expose each engine individually.
func (s *Service) WriteMetrics(w io.Writer) error {
	st, views, resp := s.collect()
	subscribers, _ := s.fan.stats()
	var leapSteps int64
	var leapBlocked sim.LeapBlocked
	for _, v := range views {
		leapSteps += v.snap.LeapSteps
		leapBlocked.Add(v.snap.LeapBlocked)
	}

	var b strings.Builder
	metric := func(name, help, typ string, v any, labels string) {
		// HELP/TYPE emitted once per family: callers group label variants.
		if help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
		}
		fmt.Fprintf(&b, "%s%s %v\n", name, labels, v)
	}

	metric("krad_shards", "Independent scheduler engines behind the admission front-end.", "gauge", len(views), "")
	metric("krad_steps_total", "Virtual scheduler steps executed (all shards).", "counter", st.Steps, "")
	metric("krad_engine_leap_steps_total", "Virtual steps covered by event-leaps — executed in closed form without a fresh scheduling round (all shards).", "counter", leapSteps, "")
	leapFirst := true
	leapBlocked.Each(func(reason string, n int64) {
		help := ""
		if leapFirst {
			help = "Scheduling rounds with a multi-step budget that could not leap, by reason (all shards)."
			leapFirst = false
		}
		metric("krad_engine_leap_blocked_total", help, "counter", n, fmt.Sprintf(`{reason="%s"}`, reason))
	})
	metric("krad_virtual_time", "Furthest shard virtual clock (last executed step).", "gauge", st.Now, "")
	metric("krad_jobs_submitted_total", "Jobs admitted.", "counter", st.Submitted, "")
	metric("krad_jobs_completed_total", "Jobs completed.", "counter", st.Completed, "")
	metric("krad_jobs_cancelled_total", "Jobs cancelled.", "counter", st.Cancelled, "")
	metric("krad_jobs_rejected_total", "Submissions rejected by admission backpressure.", "counter", st.Rejected, "")
	metric("krad_jobs_active", "Jobs currently executing.", "gauge", st.Active, "")
	metric("krad_jobs_pending", "Admitted jobs awaiting release.", "gauge", st.Pending, "")
	metric("krad_queue_depth", "In-flight jobs (pending + active) against the admission bound.", "gauge", st.InFlight, "")
	metric("krad_events_dropped_total", "Step events dropped on slow subscribers.", "counter", st.EventsDropped, "")
	metric("krad_event_subscribers", "Connected event subscribers.", "gauge", subscribers, "")

	first := true
	for a, u := range st.Utilization {
		help := ""
		if first {
			help = "Cumulative busy fraction per resource category, weighted across shards."
			first = false
		}
		metric("krad_utilization", help, "gauge", fmt.Sprintf("%g", u), fmt.Sprintf(`{category="%d"}`, a+1))
	}

	// Per-shard series: one labelled sample per engine.
	perShard := []struct {
		name, help, typ string
		value           func(v shardView) any
	}{
		{"krad_shard_steps_total", "Virtual steps executed by one shard.", "counter", func(v shardView) any { return v.steps }},
		{"krad_shard_virtual_time", "One shard's virtual clock.", "gauge", func(v shardView) any { return v.snap.Now }},
		{"krad_shard_jobs_submitted_total", "Jobs admitted to one shard.", "counter", func(v shardView) any { return v.submitted }},
		{"krad_shard_jobs_completed_total", "Jobs completed on one shard.", "counter", func(v shardView) any { return v.completed }},
		{"krad_shard_jobs_cancelled_total", "Jobs cancelled on one shard.", "counter", func(v shardView) any { return v.cancelled }},
		{"krad_shard_jobs_rejected_total", "Submissions rejected by one shard's admission bound.", "counter", func(v shardView) any { return v.rejected }},
		{"krad_shard_jobs_active", "Jobs currently executing on one shard.", "gauge", func(v shardView) any { return v.snap.Active }},
		{"krad_shard_jobs_pending", "Admitted jobs awaiting release on one shard.", "gauge", func(v shardView) any { return v.snap.Pending }},
		{"krad_shard_queue_depth", "One shard's in-flight jobs against its admission share.", "gauge", func(v shardView) any { return v.snap.Active + v.snap.Pending }},
	}
	for _, m := range perShard {
		for i, v := range views {
			help := ""
			if i == 0 {
				help = m.help
			}
			metric(m.name, help, m.typ, m.value(v), fmt.Sprintf(`{shard="%d"}`, v.idx))
		}
	}

	// Steal families appear only when work stealing is enabled, so a
	// steal-free deployment's exposition stays bit-identical to earlier
	// builds.
	if st.Steal != nil {
		metric("krad_jobs_stolen_total", "Jobs moved off their admission shard by work stealing (victim side).", "counter", st.Steal.Stolen, "")
		metric("krad_jobs_stolen_in_total", "Jobs re-admitted by thieves (matches krad_jobs_stolen_total when no steal is mid-repair).", "counter", st.Steal.StolenIn, "")
		metric("krad_est_work", "Estimated remaining work across the fleet (task-steps) — the work-aware placement gauge.", "gauge", st.Steal.EstWork, "")
		perSteal := []struct {
			name, help, typ string
			value           func(v shardView) any
		}{
			{"krad_shard_jobs_stolen_out_total", "Jobs stolen away from one shard.", "counter", func(v shardView) any { return v.snap.Stolen }},
			{"krad_shard_jobs_stolen_in_total", "Jobs one shard re-admitted from victims.", "counter", func(v shardView) any { return v.stolenIn }},
			{"krad_shard_est_work", "One shard's estimated remaining work (task-steps).", "gauge", func(v shardView) any { return v.estWork }},
		}
		for _, m := range perSteal {
			for i, v := range views {
				help := ""
				if i == 0 {
					help = m.help
				}
				metric(m.name, help, m.typ, m.value(v), fmt.Sprintf(`{shard="%d"}`, v.idx))
			}
		}
	}

	// Journal families appear only when journaling is enabled, so a
	// journal-free deployment's exposition stays bit-identical to builds
	// before durability existed.
	if js := st.Journal; js != nil {
		metric("krad_journal_records", "Write-ahead journal records across shards (replay length of a crash right now).", "gauge", js.Records, "")
		metric("krad_journal_appended_total", "Journal records appended since startup.", "counter", js.Appended, "")
		metric("krad_journal_compactions_total", "Journal snapshot compactions since startup.", "counter", js.Compactions, "")
		metric("krad_journal_size_bytes", "Journal file bytes across shards.", "gauge", js.SizeBytes, "")
		metric("krad_journal_syncs_total", "Journal fsyncs issued across shards.", "counter", js.Syncs, "")
		metric("krad_journal_sync_seconds_total", "Cumulative wall time spent inside journal fsyncs across shards.", "counter", fmt.Sprintf("%g", js.SyncSeconds), "")
		metric("krad_journal_degraded_shards", "Shards whose journal latched a write failure (admission suspended).", "gauge", js.Degraded, "")
	}

	// Replication families appear only when replication is configured, so
	// a standalone deployment's exposition stays bit-identical to builds
	// before warm standbys existed.
	if rs := st.Replication; rs != nil {
		b2i := func(v bool) int {
			if v {
				return 1
			}
			return 0
		}
		switch {
		case rs.Primary != nil:
			p := rs.Primary
			metric("krad_replicate_epoch", "Replication epoch this daemon believes current.", "gauge", p.Epoch, "")
			metric("krad_replicate_connected", "Whether the replication stream is live (1) or down (0).", "gauge", b2i(p.Connected), "")
			metric("krad_replicate_lag_records", "Committed records the follower has not yet acknowledged, summed over shards.", "gauge", p.LagRecords, "")
			metric("krad_replicate_reconnects_total", "Replication stream re-dials after the first successful handshake.", "counter", p.Reconnects, "")
			metric("krad_replicate_fenced", "Whether this primary is fenced by a promoted follower (1) and refusing admissions.", "gauge", b2i(p.Fenced), "")
			metric("krad_replicate_queue_drops_total", "Whole-queue spills from the in-memory send queue to WAL catch-up.", "counter", p.QueueDrops, "")
		case rs.Follower != nil:
			f := rs.Follower
			metric("krad_replicate_epoch", "Replication epoch this daemon believes current.", "gauge", f.Epoch, "")
			metric("krad_replicate_connected", "Whether the replication stream is live (1) or down (0).", "gauge", b2i(f.Connected), "")
			metric("krad_replicate_reconnects_total", "Primary connections accepted (handshakes), counting reconnects.", "counter", f.Connects, "")
			metric("krad_replicate_applied_total", "Replicated records applied through the engines since start.", "counter", f.Applied, "")
			metric("krad_replicate_promoted", "Whether this follower has promoted itself to primary (1).", "gauge", b2i(f.Promoted), "")
		}
	}

	// Tenant families appear only when fairness is enabled, so a
	// fairness-free deployment's exposition stays bit-identical to builds
	// before multi-tenancy existed.
	if tenants := st.Tenants; len(tenants) > 0 {
		perTenant := []struct {
			name, help, typ string
			value           func(ts TenantStats) any
		}{
			{"krad_tenant_share", "One tenant leaf's current fair share of the fleet admission bound, in slots.", "gauge", func(ts TenantStats) any { return ts.Share }},
			{"krad_tenant_in_flight", "One tenant leaf's admitted-but-unfinished jobs.", "gauge", func(ts TenantStats) any { return ts.InFlight }},
			{"krad_tenant_usage", "One tenant leaf's exponentially decayed usage (task-steps, decayed per shard clock).", "gauge", func(ts TenantStats) any { return fmt.Sprintf("%g", ts.Usage) }},
			{"krad_tenant_admitted_total", "Jobs admitted for one tenant leaf.", "counter", func(ts TenantStats) any { return ts.Admitted }},
			{"krad_tenant_shed_total", "Jobs shed over fair-share quota for one tenant leaf (HTTP 429); a shed batch counts each of its jobs.", "counter", func(ts TenantStats) any { return ts.Shed }},
		}
		for _, m := range perTenant {
			for i, ts := range tenants {
				help := ""
				if i == 0 {
					help = m.help
				}
				metric(m.name, help, m.typ, m.value(ts), fmt.Sprintf(`{tenant="%s"}`, ts.Path))
			}
		}
	}

	writeResponseHist(&b, resp)

	_, err := io.WriteString(w, b.String())
	return err
}

// writeResponseHist renders the response-time histogram: cumulative le
// buckets from one virtual step into the tens of thousands, doubling per
// bucket — every bound is an edge of h, so each line is an exact count.
func writeResponseHist(b *strings.Builder, h *metrics.Hist) {
	fmt.Fprintf(b, "# HELP krad_response_steps Job response times in virtual steps (all shards).\n# TYPE krad_response_steps histogram\n")
	for le := 1.0; le <= 32768; le *= 2 {
		fmt.Fprintf(b, "krad_response_steps_bucket{le=\"%g\"} %d\n", le, h.CountLE(le))
	}
	fmt.Fprintf(b, "krad_response_steps_bucket{le=\"+Inf\"} %d\n", h.Count())
	fmt.Fprintf(b, "krad_response_steps_sum %g\n", h.Sum())
	fmt.Fprintf(b, "krad_response_steps_count %d\n", h.Count())
}
