package server

import (
	"fmt"
	"hash/fnv"
	"sync/atomic"
)

// Job IDs are namespaced so GET/DELETE route straight to the owning shard
// without broadcast: id = shard<<shardIDBits | local. Shard 0's IDs
// coincide with its engine-local IDs, so a single-shard service is
// bit-for-bit compatible with the pre-sharding wire format. The scheme
// assumes a 64-bit int (every platform the daemon targets) and fewer than
// 2^32 jobs per shard.
const shardIDBits = 32

func composeID(shard, local int) int { return shard<<shardIDBits | local }

// ShardOf returns the shard index encoded in a namespaced job ID.
// Exported so clients can audit per-shard behavior from the IDs alone.
func ShardOf(id int) int { return id >> shardIDBits }

// LocalID returns the shard-local job ID encoded in a namespaced job ID.
func LocalID(id int) int { return id & (1<<shardIDBits - 1) }

// Placement picks which shard admits a submission.
//
// Pick returns a shard index in [0, len(loads)). key is the
// client-supplied affinity key ("" when absent) and loads reports each
// shard's current load for load-aware policies: the in-flight count by
// default, or the estimated remaining work (sum of outstanding
// allotment-seconds) when stealing is enabled — the same gauge the
// thief uses to pick victims, so placement and stealing pull toward the
// same equilibrium. Pick may be called concurrently.
type Placement interface {
	Name() string
	Pick(key string, loads []int) int
}

// Placement policy names accepted by NewPlacement (and the kradd
// -placement flag).
const (
	PlaceRoundRobin  = "round-robin"
	PlaceHash        = "hash"
	PlaceLeastLoaded = "least-loaded"
)

// NewPlacement builds a placement policy by name. The empty string means
// round-robin, the baseline.
func NewPlacement(name string) (Placement, error) {
	switch name {
	case "", PlaceRoundRobin:
		return &roundRobin{}, nil
	case PlaceHash:
		return &hashed{}, nil
	case PlaceLeastLoaded:
		return leastLoaded{}, nil
	}
	return nil, fmt.Errorf("server: unknown placement policy %q (want %s, %s or %s)",
		name, PlaceRoundRobin, PlaceHash, PlaceLeastLoaded)
}

// roundRobin cycles through shards regardless of key or load.
type roundRobin struct{ ctr atomic.Uint64 }

func (p *roundRobin) Name() string { return PlaceRoundRobin }

func (p *roundRobin) Pick(key string, loads []int) int {
	return int((p.ctr.Add(1) - 1) % uint64(len(loads)))
}

// hashed routes by FNV-1a of the client-supplied key, so equal keys land
// on the same shard (session affinity); keyless submissions fall back to
// round-robin.
type hashed struct{ fallback roundRobin }

func (p *hashed) Name() string { return PlaceHash }

func (p *hashed) Pick(key string, loads []int) int {
	if key == "" {
		return p.fallback.Pick(key, loads)
	}
	h := fnv.New32a()
	_, _ = h.Write([]byte(key))
	return int(h.Sum32() % uint32(len(loads)))
}

// leastLoaded picks the shard with the lowest load (lowest index on
// ties — strictly `<` below, so the first minimum wins and placement is
// deterministic for a given loads vector). The reading is a snapshot —
// concurrent submissions may race past each other — but that is exactly
// the "power of the current estimate" trade-off partitioned schedulers
// make.
type leastLoaded struct{}

func (leastLoaded) Name() string { return PlaceLeastLoaded }

func (leastLoaded) Pick(key string, loads []int) int {
	best := 0
	for i, l := range loads {
		if l < loads[best] {
			best = i
		}
	}
	return best
}
