package fairshare

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// TestUsageHalfLifeDecay pins the decay math: one half-life halves the
// value, k half-lives scale by 2^-k, and additions compound after decay.
func TestUsageHalfLifeDecay(t *testing.T) {
	const hl = 100
	cases := []struct {
		name string
		ops  func(u *Usage)
		at   int64
		want float64
	}{
		{"empty", func(u *Usage) {}, 500, 0},
		{"no elapsed time", func(u *Usage) { u.Add(0, hl, 8) }, 0, 8},
		{"one half-life", func(u *Usage) { u.Add(0, hl, 8) }, hl, 4},
		{"two half-lives", func(u *Usage) { u.Add(0, hl, 8) }, 2 * hl, 2},
		{"five half-lives", func(u *Usage) { u.Add(0, hl, 32) }, 5 * hl, 1},
		{"fractional", func(u *Usage) { u.Add(0, hl, 1) }, hl / 2, math.Exp2(-0.5)},
		{"add after decay", func(u *Usage) {
			u.Add(0, hl, 8)
			u.Add(hl, hl, 6) // 8 decays to 4, +6 = 10
		}, hl, 10},
		{"two adds two half-lives apart", func(u *Usage) {
			u.Add(0, hl, 8)
			u.Add(2*hl, hl, 1) // 8→2, +1 = 3
		}, 3 * hl, 1.5},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var u Usage
			c.ops(&u)
			if got := u.At(c.at, hl); math.Abs(got-c.want) > 1e-12 {
				t.Errorf("At(%d) = %g, want %g", c.at, got, c.want)
			}
		})
	}
}

// TestUsageReadIsPure checks At never mutates: reading with different
// clocks (cross-shard aggregation) must not corrupt the accumulator.
func TestUsageReadIsPure(t *testing.T) {
	var u Usage
	u.Add(10, 100, 5)
	before := u
	_ = u.At(500, 100)
	_ = u.At(0, 100) // a slower shard clock reads undecayed, not inflated
	if u != before {
		t.Errorf("At mutated the accumulator: %+v → %+v", before, u)
	}
	if got := u.At(0, 100); got != 5 {
		t.Errorf("At(before AsOf) = %g, want undecayed 5", got)
	}
}

// TestUsageDropsBelowOnePercent pins the recovery bound documented in
// DESIGN.md: usage falls below 1% of its value after 7 half-lives
// (2^-7 ≈ 0.78%), but not yet after 5 (2^-5 ≈ 3.1%).
func TestUsageDropsBelowOnePercent(t *testing.T) {
	var u Usage
	u.Add(0, 64, 1000)
	if got := u.At(5*64, 64); got <= 10 {
		t.Errorf("usage after 5 half-lives = %g, expected still above 1%%", got)
	}
	if got := u.At(7*64, 64); got >= 10 {
		t.Errorf("usage after 7 half-lives = %g, want below 1%% of 1000", got)
	}
}

// sharesByPath is Shares over path-keyed states, keyed by leaf path: the
// form the table tests read best in.
func sharesByPath(tr *Tree, states map[string]State, capacity int) map[string]int {
	leaves := tr.Leaves()
	flat := make([]State, len(leaves))
	for i, l := range leaves {
		flat[i] = states[l.Path]
	}
	out := make(map[string]int, len(leaves))
	for i, v := range tr.Shares(flat, capacity) {
		out[leaves[i].Path] = v
	}
	return out
}

func flatTree(t *testing.T, nodes ...NodeConfig) *Tree {
	t.Helper()
	tr, err := New(Config{Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestSharesWeightedDivision is the table-driven core: weighted division
// with inactive leaves, deserved quotas, strict quotas, priorities.
func TestSharesWeightedDivision(t *testing.T) {
	cases := []struct {
		name     string
		nodes    []NodeConfig
		states   map[string]State
		capacity int
		want     map[string]int
	}{
		{
			name: "two active weights 2:1",
			nodes: []NodeConfig{
				{Name: "a", Weight: 2}, {Name: "b", Weight: 1},
			},
			states:   map[string]State{"a": {InFlight: 1}, "b": {InFlight: 1}},
			capacity: 9,
			want:     map[string]int{"a": 6, "b": 3, "default": 0},
		},
		{
			name: "inactive leaf lends its capacity",
			nodes: []NodeConfig{
				{Name: "a", Weight: 1}, {Name: "b", Weight: 1}, {Name: "c", Weight: 2},
			},
			states:   map[string]State{"a": {InFlight: 3}, "b": {InFlight: 1}},
			capacity: 8,
			want:     map[string]int{"a": 4, "b": 4, "c": 0, "default": 0},
		},
		{
			name: "requesting leaf counts as active",
			nodes: []NodeConfig{
				{Name: "a", Weight: 1}, {Name: "b", Weight: 1},
			},
			states:   map[string]State{"a": {InFlight: 4}, "b": {Requesting: true}},
			capacity: 8,
			want:     map[string]int{"a": 4, "b": 4, "default": 0},
		},
		{
			name: "deserved honored before over-quota",
			nodes: []NodeConfig{
				{Name: "a", Deserved: 6, Weight: 1}, {Name: "b", Weight: 1},
			},
			states:   map[string]State{"a": {InFlight: 1}, "b": {InFlight: 1}},
			capacity: 8,
			want:     map[string]int{"a": 7, "b": 1, "default": 0},
		},
		{
			name: "deserved scaled when capacity short",
			nodes: []NodeConfig{
				{Name: "a", Deserved: 6}, {Name: "b", Deserved: 2},
			},
			states:   map[string]State{"a": {InFlight: 1}, "b": {InFlight: 1}},
			capacity: 4,
			want:     map[string]int{"a": 3, "b": 1, "default": 0},
		},
		{
			name: "zero weight is a strict quota",
			nodes: []NodeConfig{
				{Name: "a", Deserved: 2}, {Name: "b", Deserved: 1, Weight: 1},
			},
			states:   map[string]State{"a": {InFlight: 1}, "b": {InFlight: 1}},
			capacity: 10,
			want:     map[string]int{"a": 2, "b": 8, "default": 0},
		},
		{
			name: "all idle divides nothing",
			nodes: []NodeConfig{
				{Name: "a", Weight: 1}, {Name: "b", Weight: 1},
			},
			states:   nil,
			capacity: 8,
			want:     map[string]int{"a": 0, "b": 0, "default": 0},
		},
		{
			name: "remainder goes to lower decayed usage",
			nodes: []NodeConfig{
				{Name: "a", Weight: 1}, {Name: "b", Weight: 1},
			},
			states:   map[string]State{"a": {InFlight: 1, Usage: 100}, "b": {InFlight: 1, Usage: 10}},
			capacity: 5,
			want:     map[string]int{"a": 2, "b": 3, "default": 0},
		},
		{
			name: "remainder goes to higher priority despite usage",
			nodes: []NodeConfig{
				{Name: "a", Weight: 1, Priority: 1}, {Name: "b", Weight: 1},
			},
			states:   map[string]State{"a": {InFlight: 1, Usage: 100}, "b": {InFlight: 1, Usage: 0}},
			capacity: 5,
			want:     map[string]int{"a": 3, "b": 2, "default": 0},
		},
		{
			name: "hierarchy splits tenant then project",
			nodes: []NodeConfig{
				{Name: "acme", Weight: 2, Children: []NodeConfig{
					{Name: "ml", Weight: 3},
					{Name: "web", Weight: 1},
				}},
				{Name: "beta", Weight: 1},
			},
			states: map[string]State{
				"acme/ml": {InFlight: 1}, "acme/web": {InFlight: 1}, "beta": {InFlight: 1},
			},
			capacity: 12,
			want:     map[string]int{"acme/ml": 6, "acme/web": 2, "beta": 4, "default": 0},
		},
		{
			name: "interior node with idle subtree is skipped",
			nodes: []NodeConfig{
				{Name: "acme", Weight: 1, Children: []NodeConfig{
					{Name: "ml", Weight: 1}, {Name: "web", Weight: 1},
				}},
				{Name: "beta", Weight: 1},
			},
			states:   map[string]State{"beta": {InFlight: 2}},
			capacity: 6,
			want:     map[string]int{"acme/ml": 0, "acme/web": 0, "beta": 6, "default": 0},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tr := flatTree(t, c.nodes...)
			got := sharesByPath(tr, c.states, c.capacity)
			if !reflect.DeepEqual(got, c.want) {
				t.Errorf("Shares = %v, want %v", got, c.want)
			}
		})
	}
}

// TestSharesSumToCapacity checks the exact-sum invariant whenever an
// active leaf with positive weight exists: no slot is lost to rounding.
func TestSharesSumToCapacity(t *testing.T) {
	tr := flatTree(t,
		NodeConfig{Name: "a", Deserved: 1.5, Weight: 3},
		NodeConfig{Name: "b", Weight: 2},
		NodeConfig{Name: "c", Deserved: 0.7, Weight: 1},
	)
	states := map[string]State{
		"a": {InFlight: 2, Usage: 17.3},
		"b": {InFlight: 5, Usage: 2.2},
		"c": {InFlight: 1, Usage: 400},
	}
	for capacity := 1; capacity <= 64; capacity++ {
		got := sharesByPath(tr, states, capacity)
		sum := 0
		for _, v := range got {
			sum += v
		}
		if sum != capacity {
			t.Fatalf("capacity %d: shares %v sum to %d", capacity, got, sum)
		}
	}
}

// TestRebalanceDeterminism drives randomized states (fixed seed) through
// Shares twice — once with map insertions in one order, once reversed —
// and requires identical results: rebalancing must not depend on map
// iteration order or call history.
func TestRebalanceDeterminism(t *testing.T) {
	tr := flatTree(t,
		NodeConfig{Name: "acme", Weight: 2, Children: []NodeConfig{
			{Name: "ml", Deserved: 2, Weight: 3, Priority: 1},
			{Name: "web", Weight: 1},
		}},
		NodeConfig{Name: "beta", Deserved: 1, Weight: 1},
		NodeConfig{Name: "gamma", Weight: 4},
	)
	paths := []string{"acme/ml", "acme/web", "beta", "gamma"}
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		fwd := make(map[string]State)
		for _, p := range paths {
			if rng.Intn(3) == 0 {
				continue // leave some leaves idle
			}
			fwd[p] = State{
				InFlight:   rng.Intn(10),
				Usage:      float64(rng.Intn(1000)) / 3,
				Requesting: rng.Intn(4) == 0,
			}
		}
		rev := make(map[string]State)
		for i := len(paths) - 1; i >= 0; i-- {
			if st, ok := fwd[paths[i]]; ok {
				rev[paths[i]] = st
			}
		}
		capacity := 1 + rng.Intn(100)
		a := sharesByPath(tr, fwd, capacity)
		b := sharesByPath(tr, rev, capacity)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("trial %d: insertion order changed shares: %v vs %v", trial, a, b)
		}
		if c := sharesByPath(tr, fwd, capacity); !reflect.DeepEqual(a, c) {
			t.Fatalf("trial %d: repeated call changed shares: %v vs %v", trial, a, c)
		}
	}
}

// TestEnsureResolution pins header → leaf resolution: exact paths,
// sub-path absorption, interior nodes, dynamic creation, junk fallback.
// TestLateNodesInNameOrder: leaves created after New, in any order, give
// the same tree (each late node among its siblings by name, after the
// ones New built), the same listing and the same shares, while each leaf
// keeps the index of its creation.
func TestLateNodesInNameOrder(t *testing.T) {
	cfg := Config{Nodes: []NodeConfig{
		{Name: "zeta", Children: []NodeConfig{{Name: "prod", Weight: 2}}},
		{Name: "acme", Weight: 1},
	}}
	paths := []string{"team-b", "zeta/ml", "team-a", "zeta/cv", "zeta/ab", "beta/x", "beta/a"}
	build := func(order []string) (shape string, listing []string, shares map[string]int) {
		tr, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range order {
			tr.Ensure(p)
		}
		for i, l := range tr.Leaves()[tr.static:] {
			if l.Path != order[i] {
				t.Fatalf("leaf %d is %s, want %s: indices follow creation", tr.static+i, l.Path, order[i])
			}
		}
		var b strings.Builder
		var walk func(n *node)
		walk = func(n *node) {
			for i, c := range n.children {
				if c.pos != i {
					t.Fatalf("%s at %d records pos %d", c.path, i, c.pos)
				}
				b.WriteString(c.path + " ")
				walk(c)
			}
		}
		walk(tr.root)
		for _, l := range tr.Listing() {
			listing = append(listing, l.Path)
		}
		states := map[string]State{}
		for i, p := range paths {
			states[p] = State{InFlight: 1, Usage: 0.1 * float64(i+1)}
		}
		return b.String(), listing, sharesByPath(tr, states, 17)
	}
	shape, listing, shares := build(paths)
	if want := "zeta zeta/prod zeta/ab zeta/cv zeta/ml acme default beta beta/a beta/x team-a team-b "; shape != want {
		t.Errorf("tree %q, want %q", shape, want)
	}
	if want := []string{"zeta/prod", "acme", "default", "beta/a", "beta/x", "team-a", "team-b", "zeta/ab", "zeta/cv", "zeta/ml"}; !slices.Equal(listing, want) {
		t.Errorf("listing %q, want %q", listing, want)
	}
	rev := slices.Clone(paths)
	slices.Reverse(rev)
	rshape, rlisting, rshares := build(rev)
	if rshape != shape || !slices.Equal(rlisting, listing) || !reflect.DeepEqual(rshares, shares) {
		t.Errorf("reverse creation order: tree %q, listing %q, shares %v; forward %q, %q, %v", rshape, rlisting, rshares, shape, listing, shares)
	}
}

func TestEnsureResolution(t *testing.T) {
	tr, err := New(Config{Nodes: []NodeConfig{
		{Name: "acme", Children: []NodeConfig{
			{Name: "ml", Weight: 2},
		}},
		{Name: "beta", Weight: 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Ensure(""); got != tr.Default() {
		t.Errorf("empty header → %q, want default", got.Path)
	}
	if got := tr.Ensure("acme/ml"); got.Path != "acme/ml" || got.Dynamic {
		t.Errorf("exact leaf → %+v", got)
	}
	// A configured leaf absorbs unconfigured sub-paths.
	if got := tr.Ensure("beta/extra/deep"); got.Path != "beta" {
		t.Errorf("sub-path of leaf → %q, want beta", got.Path)
	}
	// An interior node resolves to its dynamic default child.
	if got := tr.Ensure("acme"); got.Path != "acme/default" || !got.Dynamic {
		t.Errorf("interior node → %+v, want dynamic acme/default", got)
	}
	// Unknown tenants get dynamic leaves with weight 1.
	got := tr.Ensure("newco/batch")
	if got.Path != "newco/batch" || !got.Dynamic || got.Weight != 1 || got.Deserved != 0 {
		t.Errorf("dynamic leaf → %+v", got)
	}
	if again := tr.Ensure("newco/batch"); again != got {
		t.Error("Ensure not idempotent for dynamic leaf")
	}
	// Junk falls back to the default leaf instead of erroring.
	for _, junk := range []string{"a/b/c/d", "bad segment", "ctrl\x00char", "", "//", "x/"} {
		if got := tr.Ensure(junk); got == nil {
			t.Errorf("Ensure(%q) returned nil", junk)
		}
	}
	if got := tr.Ensure("a/b/c/d"); got != tr.Default() {
		t.Errorf("over-deep path → %q, want default", got.Path)
	}
}

// TestEnsureInteriorIdempotent: every header naming an interior node,
// configured or dynamic, resolves to the same <node>/default leaf, and
// only the first creates it.
func TestEnsureInteriorIdempotent(t *testing.T) {
	tr, err := New(Config{Nodes: []NodeConfig{
		{Name: "acme", Children: []NodeConfig{{Name: "ml", Weight: 2}}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	tr.Ensure("newco/batch") // makes newco a dynamic interior node
	for _, interior := range []string{"acme", "newco"} {
		before := len(tr.Leaves())
		first, second := tr.Ensure(interior), tr.Ensure(interior)
		if first.Path != interior+"/default" || !first.Dynamic {
			t.Errorf("Ensure(%q) → %+v, want dynamic %s/default", interior, first, interior)
		}
		if second != first {
			t.Errorf("second Ensure(%q) → %q, want the first call's %q", interior, second.Path, first.Path)
		}
		if n := len(tr.Leaves()) - before; n != 1 {
			t.Errorf("two Ensure(%q) calls created %d leaves, want 1", interior, n)
		}
	}
}

// TestEnsureDynamicCap checks unknown tenants stop growing the tree at
// MaxDynamicLeaves and collapse onto the default leaf.
func TestEnsureDynamicCap(t *testing.T) {
	tr, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	base := len(tr.Leaves())
	for i := 0; i < MaxDynamicLeaves+10; i++ {
		tr.Ensure(fmt_i(i))
	}
	if got := len(tr.Leaves()); got > base+MaxDynamicLeaves {
		t.Errorf("tree grew to %d leaves, cap is %d", got, base+MaxDynamicLeaves)
	}
	if got := tr.Ensure("one-more-tenant"); got != tr.Default() {
		t.Errorf("beyond cap → %q, want default leaf", got.Path)
	}
}

func fmt_i(i int) string {
	const digits = "0123456789"
	if i == 0 {
		return "t0"
	}
	var b []byte
	for ; i > 0; i /= 10 {
		b = append([]byte{digits[i%10]}, b...)
	}
	return "t" + string(b)
}

// TestNewValidation rejects malformed trees.
func TestNewValidation(t *testing.T) {
	cases := []Config{
		{Nodes: []NodeConfig{{Name: ""}}},
		{Nodes: []NodeConfig{{Name: "a"}, {Name: "a"}}},
		{Nodes: []NodeConfig{{Name: "bad name"}}},
		{Nodes: []NodeConfig{{Name: "a", Weight: -1}}},
		{Nodes: []NodeConfig{{Name: "a", Deserved: -0.5}}},
		{HalfLife: -3},
	}
	for i, c := range cases {
		if _, err := New(c); err == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, c)
		}
	}
}

// TestRequestAllocatesNothing: the gate's question about a header that
// names an existing leaf, or no tenant, allocates nothing once the tree's
// scratch has grown.
func TestRequestAllocatesNothing(t *testing.T) {
	tr := flatTree(t,
		NodeConfig{Name: "acme", Weight: 2, Children: []NodeConfig{{Name: "ml", Weight: 3}, {Name: "web", Weight: 1}}},
		NodeConfig{Name: "beta", Weight: 1},
	)
	states := []State{{InFlight: 3, Usage: 5}, {InFlight: 1, Usage: 2}, {InFlight: 2, Usage: 9}}
	for _, path := range []string{"acme/web", "", "beta"} {
		if avg := testing.AllocsPerRun(100, func() { tr.Request(path, states, 37) }); avg != 0 {
			t.Errorf("Request(%q) allocates %.1f/op, want 0", path, avg)
		}
	}
}

// randomConfig draws a queue tree of up to three configured levels with
// random deserved quotas, weights and priorities.
func randomConfig(rng *rand.Rand) Config {
	names := 0
	var level func(depth int) []NodeConfig
	level = func(depth int) []NodeConfig {
		nodes := make([]NodeConfig, 1+rng.Intn(3))
		for i := range nodes {
			names++
			nodes[i] = NodeConfig{
				Name:     "n" + string(rune('a'+names%26)) + string(rune('a'+names/26)),
				Deserved: []float64{0, 0, 0.5, 1, 2.5}[rng.Intn(5)],
				Weight:   float64(rng.Intn(4)),
				Priority: rng.Intn(3) / 2,
			}
			if depth < 2 && rng.Intn(2) == 0 {
				nodes[i].Children = level(depth + 1)
			}
		}
		return nodes
	}
	return Config{Nodes: level(0)}
}

// randomTree builds randomConfig's tree plus dynamic leaves.
func randomTree(t *testing.T, rng *rand.Rand) *Tree {
	t.Helper()
	tr, err := New(randomConfig(rng))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"dyn", "dyn2/x", "dyn3/y/z"}[:rng.Intn(4)] {
		tr.Ensure(p)
	}
	return tr
}

// randomPaths draws tenant paths over tr's nodes: configured paths and
// their sub-paths (absorbed, or defaulted under an interior node), and
// new dynamic chains under the root or under any interior node.
func randomPaths(tr *Tree, rng *rand.Rand, n int) []string {
	var nodes []string
	var walk func(nd *node)
	walk = func(nd *node) {
		for _, c := range nd.children {
			nodes = append(nodes, c.path)
			walk(c)
		}
	}
	walk(tr.root)
	out := make([]string, n)
	for i := range out {
		p := fmt.Sprintf("d%d", rng.Intn(6))
		switch rng.Intn(4) {
		case 0:
			p = nodes[rng.Intn(len(nodes))]
		case 1:
			p = nodes[rng.Intn(len(nodes))] + "/" + p
		case 2:
			p += fmt.Sprintf("/e%d", rng.Intn(3))
		}
		out[i] = p
	}
	return out
}

// FuzzTreeShare is the gate's differential test: over a random tree grown
// by random Ensure calls and random states, Request's share for a path
// equals the Shares entry that Ensure(path)'s leaf gets as the requester
// on a second tree grown the same way, and the first tree keeps its
// listing and every leaf index. A path with no leaf yet is exactly the
// case where the gate answers for a leaf that does not exist.
func FuzzTreeShare(f *testing.F) {
	f.Add(int64(1), "", uint8(0), uint8(0), 17)
	f.Add(int64(2), "d1/e2", uint8(5), uint8(1), 9)
	f.Add(int64(3), "nb/deep", uint8(9), uint8(1), 40)
	f.Add(int64(4), "a/b/c/d", uint8(2), uint8(1), 3)
	f.Fuzz(func(t *testing.T, seed int64, raw string, grow, pick uint8, capacity int) {
		if len(raw) > 200 {
			t.Skip("no tenant path is this long; a long one only slows minimizing")
		}
		rng := rand.New(rand.NewSource(seed))
		cfg := randomConfig(rng)
		a, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := New(cfg)
		for _, p := range randomPaths(a, rng, int(grow%12)) {
			a.Ensure(p)
			b.Ensure(p)
		}
		path := raw
		if pick%2 == 0 {
			path = randomPaths(a, rng, 1)[0]
		}
		listing := func() (paths []string) {
			for _, l := range a.Listing() {
				paths = append(paths, l.Path)
			}
			return paths
		}
		before := listing()
		states := make([]State, len(a.Leaves()))
		for i := range states {
			if rng.Intn(3) != 0 {
				states[i] = State{InFlight: rng.Intn(6), Usage: float64(rng.Intn(500)) / 7}
			}
		}
		capacity %= 64

		leaf, resolved, share := a.Request(path, states, capacity)
		if after := listing(); !slices.Equal(after, before) {
			t.Fatalf("Request(%q) changed the listing: %v, was %v", path, after, before)
		}
		for i, l := range a.Leaves() {
			if l.Index() != i {
				t.Fatalf("Request(%q): leaf %s has index %d, want %d", path, l.Path, l.Index(), i)
			}
		}
		want := b.Ensure(path)
		if want.Path != resolved || (leaf == nil) != (want.Index() == len(states)) || (leaf != nil && leaf.Index() != want.Index()) {
			t.Fatalf("Request(%q) resolves %v at %q, Ensure gives %s at index %d of %d", path, leaf, resolved, want.Path, want.Index(), len(states))
		}
		bstates := append(slices.Clone(states), make([]State, len(b.Leaves())-len(states))...)
		bstates[want.Index()].Requesting = true
		if got := b.Shares(bstates, capacity)[want.Index()]; share != got {
			t.Fatalf("Request(%q) shares %d, Shares gives the requesting %s %d", path, share, want.Path, got)
		}
	})
}

// TestShareMatchesShares: the path-only division gives every leaf the
// share the full division does, over random trees and states.
func TestShareMatchesShares(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		tr := randomTree(t, rng)
		leaves := tr.Leaves()
		flat := make([]State, len(leaves))
		for i := range leaves {
			if rng.Intn(3) == 0 {
				continue
			}
			flat[i] = State{InFlight: rng.Intn(6), Usage: float64(rng.Intn(500)) / 7, Requesting: rng.Intn(5) == 0}
		}
		capacity := rng.Intn(40) - 2
		want := tr.Shares(flat, capacity)
		for i, l := range leaves {
			if l.Index() != i {
				t.Fatalf("leaf %s has index %d, want %d", l.Path, l.Index(), i)
			}
			if got := tr.Share(l, flat, capacity); got != want[i] {
				t.Fatalf("trial %d: Share(%s) = %d, Shares gives %d (%v)", trial, l.Path, got, want[i], want)
			}
		}
	}
}

// TestShareAllocatesNothing pins the gate's division at zero allocations
// once the tree's scratch has grown.
func TestShareAllocatesNothing(t *testing.T) {
	tr := flatTree(t,
		NodeConfig{Name: "acme", Weight: 2, Children: []NodeConfig{
			{Name: "ml", Deserved: 2, Weight: 3, Priority: 1},
			{Name: "web", Weight: 1},
		}},
		NodeConfig{Name: "beta", Deserved: 1, Weight: 1},
		NodeConfig{Name: "gamma", Weight: 4},
	)
	leaf, _ := tr.Lookup("acme/web")
	states := []State{{InFlight: 3, Usage: 5}, {InFlight: 1, Usage: 2, Requesting: true}, {InFlight: 2, Usage: 9}, {InFlight: 4, Usage: 1}}
	if avg := testing.AllocsPerRun(100, func() { tr.Share(leaf, states, 37) }); avg != 0 {
		t.Errorf("Share allocates %.1f/op, want 0", avg)
	}
}
