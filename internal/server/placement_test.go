package server

import "testing"

// TestLeastLoadedTieBreak pins the deterministic tie-break: among
// equally loaded shards, the lowest index wins. Journal replay and
// follower rebuilds depend on placement being a pure function of the
// loads vector, so a "random victim among ties" change would be a
// regression even though it looks harmless.
func TestLeastLoadedTieBreak(t *testing.T) {
	p, err := NewPlacement(PlaceLeastLoaded)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		loads []int
		want  int
	}{
		{"single", []int{5}, 0},
		{"all-zero", []int{0, 0, 0, 0}, 0},
		{"all-equal", []int{7, 7, 7}, 0},
		{"distinct-min-last", []int{3, 2, 1}, 2},
		{"distinct-min-first", []int{1, 2, 3}, 0},
		{"tie-in-middle", []int{5, 2, 2, 4}, 1},
		{"tie-at-ends", []int{1, 3, 3, 1}, 0},
		{"later-strictly-lower-wins", []int{2, 2, 1}, 2},
		{"negative-loads", []int{0, -1, -1}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for i := 0; i < 3; i++ { // stateless: repeated picks agree
				if got := p.Pick("", tc.loads); got != tc.want {
					t.Fatalf("Pick(%v) = %d, want %d", tc.loads, got, tc.want)
				}
			}
		})
	}
}

// TestPickAllocsPinned: policies that read no load cost a submission no
// allocation for the loads vector, at any shard count.
func TestPickAllocsPinned(t *testing.T) {
	for _, policy := range []string{PlaceRoundRobin, PlaceHash} {
		cfg := testConfig(1, 2)
		cfg.Shards = 4
		cfg.Placement = policy
		svc, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, key := range []string{"", "tenant-a"} {
			if allocs := testing.AllocsPerRun(100, func() {
				if _, err := svc.pick(key); err != nil {
					t.Fatal(err)
				}
			}); allocs != 0 {
				t.Errorf("%s pick (key %q) over 4 shards allocates %.1f, want 0", policy, key, allocs)
			}
		}
	}
}
