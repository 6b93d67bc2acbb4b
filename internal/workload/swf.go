package workload

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"krad/internal/dag"
	"krad/internal/profile"
	"krad/internal/sim"
)

// SWF support: the Standard Workload Format of the Parallel Workloads
// Archive (Feitelson et al.) is the de-facto interchange format for real
// supercomputer logs. An SWF line has 18 whitespace-separated integer
// fields; ';' starts a comment. This reader maps each record onto the
// K-resource model as a *rigid* job — p processors for t time steps —
// realized as a profile job of t phases × p tasks, so its work is p·t and
// its span t, exactly the rigid-job semantics. Categories do not exist in
// SWF; the Category callback assigns them (by partition, by executable,
// round-robin, ...).

// SWFRecord is one parsed job record (the fields this library uses; the
// full 18 are preserved in Raw).
type SWFRecord struct {
	// JobID is field 1.
	JobID int
	// Submit is field 2 (seconds since log start).
	Submit int64
	// RunTime is field 4 (seconds; −1 = unknown).
	RunTime int64
	// Procs is field 5 (allocated processors; falls back to field 8,
	// requested, when −1).
	Procs int
	// Partition is field 16 (−1 = unknown) — a common category proxy.
	Partition int
	// Raw holds all 18 fields as parsed.
	Raw [18]int64
}

// Usable reports whether the record describes a runnable job: a positive
// run time and processor count and a non-negative submit time. Real logs
// carry cancelled and malformed entries that fail this; readers decide
// whether to skip or count them.
func (rec SWFRecord) Usable() bool {
	return rec.RunTime > 0 && rec.Procs > 0 && rec.Submit >= 0
}

// RigidSpec maps the record onto the wire form of a rigid profile job for
// a K-category machine: Procs processors in category cat for the record's
// runtime ceiled to steps of timeScale seconds. This is what a load
// generator posts as {"rigid": ...}; the release companion is
// rec.Submit / timeScale.
func (rec SWFRecord) RigidSpec(k int, cat dag.Category, timeScale int64) (profile.RigidSpec, error) {
	if !rec.Usable() {
		return profile.RigidSpec{}, fmt.Errorf("workload: SWF job %d is not usable (runtime %d, procs %d, submit %d)",
			rec.JobID, rec.RunTime, rec.Procs, rec.Submit)
	}
	if timeScale < 1 {
		return profile.RigidSpec{}, fmt.Errorf("workload: RigidSpec needs timeScale ≥ 1")
	}
	// Ceil without the (runtime + scale − 1) overflow a hostile log's
	// MaxInt64 runtime would trigger; RunTime ≥ 1 here per Usable.
	steps := (rec.RunTime-1)/timeScale + 1
	if steps > math.MaxInt32 {
		return profile.RigidSpec{}, fmt.Errorf("workload: SWF job %d runtime %d at scale %d yields %d steps; implausible for a real log",
			rec.JobID, rec.RunTime, timeScale, steps)
	}
	return profile.RigidSpec{
		K:     k,
		Name:  fmt.Sprintf("swf-%d", rec.JobID),
		Cat:   int(cat),
		Procs: rec.Procs,
		Steps: int(steps),
	}, nil
}

// SWFReader streams records out of an SWF log one at a time, without
// materializing the whole job set — the record-level access a closed-loop
// load generator needs to pace a million-job archive log through a live
// daemon at bounded memory.
type SWFReader struct {
	sc     *bufio.Scanner
	lineNo int
	used   int // records NextRigid has returned
}

// NewSWFReader wraps r; lines longer than 1 MiB fail rather than split.
func NewSWFReader(r io.Reader) *SWFReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	return &SWFReader{sc: sc}
}

// Next returns the next record in the log, skipping comments and blank
// lines but NOT unusable records — callers filter with Usable so they can
// count what they skipped. Returns io.EOF at a clean end of log; any
// other error names the offending line.
func (r *SWFReader) Next() (SWFRecord, error) {
	for r.sc.Scan() {
		r.lineNo++
		line := strings.TrimSpace(r.sc.Text())
		if line == "" || strings.HasPrefix(line, ";") {
			continue
		}
		return parseSWFLine(r.lineNo, line)
	}
	if err := r.sc.Err(); err != nil {
		return SWFRecord{}, fmt.Errorf("workload: SWF read: %w", err)
	}
	return SWFRecord{}, io.EOF
}

// Line reports the line number of the record Next returned last.
func (r *SWFReader) Line() int { return r.lineNo }

func parseSWFLine(lineNo int, line string) (SWFRecord, error) {
	fields := strings.Fields(line)
	if len(fields) < 18 {
		return SWFRecord{}, fmt.Errorf("workload: SWF line %d has %d fields, want 18", lineNo, len(fields))
	}
	var rec SWFRecord
	for i := 0; i < 18; i++ {
		v, err := strconv.ParseInt(fields[i], 10, 64)
		if err != nil {
			return SWFRecord{}, fmt.Errorf("workload: SWF line %d field %d: %w", lineNo, i+1, err)
		}
		rec.Raw[i] = v
	}
	rec.JobID = int(rec.Raw[0])
	rec.Submit = rec.Raw[1]
	rec.RunTime = rec.Raw[3]
	rec.Procs = int(rec.Raw[4])
	if rec.Procs <= 0 {
		rec.Procs = int(rec.Raw[7]) // requested
	}
	rec.Partition = int(rec.Raw[15])
	return rec, nil
}

// SWFOptions controls the mapping onto the K-resource model.
type SWFOptions struct {
	// K is the number of resource categories of the target machine.
	K int
	// TimeScale converts log seconds to simulation steps: one step per
	// TimeScale seconds (≥ 1; e.g. 60 for minute-granularity steps).
	// Runtimes round up so no job becomes empty.
	TimeScale int64
	// MaxJobs truncates the log after this many accepted records
	// (0 = no limit).
	MaxJobs int
	// MaxProcs caps a record's processor count (0 = no cap) — logs from
	// machines much larger than the simulated one would otherwise swamp a
	// single category.
	MaxProcs int
	// Category assigns a resource category to a record; nil means
	// round-robin over [1, K] by acceptance order.
	Category func(rec SWFRecord, index int) dag.Category
}

// NextRigid returns the next usable record, its processor count capped
// at opts.MaxProcs, and its rigid spec in the category opts.Category
// assigns it (the index is the number of records NextRigid returned
// before). Unusable records are skipped; io.EOF ends the log; any other
// error names the offending line. opts.MaxJobs is the caller's to apply.
func (r *SWFReader) NextRigid(opts SWFOptions) (SWFRecord, profile.RigidSpec, error) {
	if opts.K < 1 || opts.TimeScale < 1 {
		return SWFRecord{}, profile.RigidSpec{}, fmt.Errorf("workload: SWF options need K ≥ 1 and TimeScale ≥ 1, got %d and %d", opts.K, opts.TimeScale)
	}
	for {
		rec, err := r.Next()
		if err != nil {
			return SWFRecord{}, profile.RigidSpec{}, err
		}
		// Skip unusable records (cancelled jobs, unknown durations).
		if !rec.Usable() {
			continue
		}
		if opts.MaxProcs > 0 && rec.Procs > opts.MaxProcs {
			rec.Procs = opts.MaxProcs
		}
		cat := dag.Category(r.used%opts.K + 1)
		if opts.Category != nil {
			cat = opts.Category(rec, r.used)
		}
		if cat < 1 || int(cat) > opts.K {
			return SWFRecord{}, profile.RigidSpec{}, fmt.Errorf("workload: SWF line %d: category %d out of [1,%d]", r.lineNo, cat, opts.K)
		}
		sp, err := rec.RigidSpec(opts.K, cat, opts.TimeScale)
		if err != nil {
			return SWFRecord{}, profile.RigidSpec{}, fmt.Errorf("workload: SWF line %d: %w", r.lineNo, err)
		}
		r.used++
		return rec, sp, nil
	}
}

// ParseSWF reads an SWF log and returns engine-ready job specs (releases
// in simulation steps, each job a *profile.Rigid — O(1) memory whatever its
// length) plus the parsed records. Records with unusable run times or
// processor counts are skipped, not fatal: real logs contain cancelled and
// malformed entries.
func ParseSWF(r io.Reader, opts SWFOptions) ([]sim.JobSpec, []SWFRecord, error) {
	var specs []sim.JobSpec
	var records []SWFRecord
	rd := NewSWFReader(r)
	for opts.MaxJobs <= 0 || len(records) < opts.MaxJobs {
		rec, sp, err := rd.NextRigid(opts)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, err
		}
		job, err := profile.FromRigidSpec(sp)
		if err != nil {
			return nil, nil, fmt.Errorf("workload: SWF line %d: %w", rd.Line(), err)
		}
		specs = append(specs, sim.JobSpec{
			Source:  job,
			Release: rec.Submit / opts.TimeScale,
		})
		records = append(records, rec)
	}
	if len(specs) == 0 {
		return nil, nil, fmt.Errorf("workload: SWF log contained no usable jobs")
	}
	return specs, records, nil
}

// WriteSyntheticSWF emits a small synthetic-but-plausible SWF log (n jobs,
// Poisson-ish arrivals, power-of-two processor requests) — handy for demos
// and tests when no archive log is at hand.
func WriteSyntheticSWF(w io.Writer, n int, seed int64) error {
	if n < 1 {
		return fmt.Errorf("workload: synthetic SWF needs n ≥ 1")
	}
	rng := rand.New(rand.NewSource(seed))
	if _, err := fmt.Fprintln(w, "; synthetic SWF log generated by krad (18 fields per record)"); err != nil {
		return err
	}
	submit := int64(0)
	for i := 1; i <= n; i++ {
		submit += int64(rng.Intn(600))
		run := int64(60 + rng.Intn(7200))
		procs := 1 << rng.Intn(6)
		partition := 1 + rng.Intn(3)
		// 18 fields: id submit wait run procs avgcpu mem reqprocs reqtime
		// reqmem status uid gid exe queue partition prev think
		if _, err := fmt.Fprintf(w, "%d %d 0 %d %d -1 -1 %d %d -1 1 1 1 %d 1 %d -1 -1\n",
			i, submit, run, procs, procs, run, 1+rng.Intn(9), partition); err != nil {
			return err
		}
	}
	return nil
}
