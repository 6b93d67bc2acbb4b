package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"time"
)

// The reference task. On a shared machine the same instructions take a
// varying time: back-to-back repetitions of one binary on one input moved
// 9–18% (interquartile, as a share of the median) with contention that
// lasts from milliseconds to minutes, far more than the 10% a regression
// gate has to resolve. A SHA-256 loop does not see it (it moved 3.5% and
// did not correlate: the contention is in the memory system, not the
// ALUs), but decoding a small JSON document with encoding/json — allocate,
// write, read, like the daemon itself — tracks it with r ≈ 0.97–0.99 and
// the same amplitude on all four workloads.
//
// So every repetition interleaves reference chunks with the work, one
// fifth as much time as the work has taken so far, after every
// operation; their time is taken out of the wall and CPU readings; and
// each timing is scaled by refChunk ÷ (the repetition's mean chunk time).
// A timing therefore reads as "on a machine that decodes the reference
// document in refChunk", which the same binary reproduces within 1–3%.
// The reference task is standard library only and no part of the program
// under test, so a change to the daemon cannot move it.
//
// The restart (setup_s) is one long call with nowhere to interleave, and
// the contention moves within a second: chunks run just before and after
// it correlated with it at r ≈ 0.4–0.6, chunks on the other core at 0.75,
// and dividing by either left it no steadier. setup_s is therefore the
// plain wall time, the median over the run's restarts, with the widest
// bound of all metrics.
const (
	// refChunk is this class of machine's usual chunk time; it only fixes
	// the scale of the normalized timings.
	refChunk = 35 * time.Microsecond
	// calibShare is how much work time buys one unit of reference time.
	calibShare = 5
)

type calibItem struct {
	K     int    `json:"k"`
	Name  string `json:"name"`
	Cat   int    `json:"cat"`
	Procs int    `json:"procs"`
	Steps int    `json:"steps"`
	Tags  []int  `json:"tags"`
}

type calibDoc struct {
	Items []*calibItem `json:"items"`
}

var calibBody = func() []byte {
	var d calibDoc
	for i := 0; i < 16; i++ {
		d.Items = append(d.Items, &calibItem{
			K: 2, Name: fmt.Sprintf("item-%d", i), Cat: 1 + i%2, Procs: i % 4, Steps: i, Tags: []int{i, i + 1, i + 2},
		})
	}
	body, err := json.Marshal(d)
	if err != nil {
		panic(err)
	}
	return body
}()

// chunkMallocs is the heap objects one chunk allocates — the same every
// time, so allocs_per_job takes exactly the calibrator's share back out.
var chunkMallocs = func() uint64 {
	const n = 256
	var c calibrator
	c.chunk() // first call fills encoding/json's type cache
	before := mallocs()
	for i := 0; i < n; i++ {
		c.chunk()
	}
	return (mallocs() - before) / n
}()

// calibrator runs reference chunks and keeps their time, count and every
// single duration.
type calibrator struct {
	total   time.Duration
	chunks  int64
	samples []float64 // nanoseconds per chunk, in order
}

func (c *calibrator) chunk() {
	start := time.Now()
	var d calibDoc
	if err := json.Unmarshal(calibBody, &d); err != nil {
		panic(err) // calibBody was encoded from the same struct
	}
	runtime.KeepAlive(d)
	took := time.Since(start)
	c.total += took
	c.chunks++
	c.samples = append(c.samples, float64(took))
}

// keepPace runs chunks until reference time is 1/calibShare of work.
func (c *calibrator) keepPace(work time.Duration) {
	for c.total*calibShare < work {
		c.chunk()
	}
}

// factor converts a measured duration to the reference machine's:
// measured × factor.
func (c *calibrator) factor() float64 {
	if c.chunks == 0 {
		return 1
	}
	return float64(refChunk) * float64(c.chunks) / float64(c.total)
}

// ref converts d, measured while c's chunks ran, to the reference machine.
func (c *calibrator) ref(d time.Duration) time.Duration {
	return time.Duration(float64(d) * c.factor())
}

// medianFactor is factor for a median of operation times rather than a
// sum: refChunk over the median of the first n chunks. A stall inside one
// chunk moves their mean and neither median.
func (c *calibrator) medianFactor(n int64) float64 {
	if n == 0 {
		return 1
	}
	return float64(refChunk) / median(c.samples[:n])
}

// chunkUS is the mean chunk time in microseconds.
func (c *calibrator) chunkUS() float64 {
	if c.chunks == 0 {
		return 0
	}
	return float64(c.total) / float64(c.chunks) / float64(time.Microsecond)
}
