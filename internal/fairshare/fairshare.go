// Package fairshare implements hierarchical multi-tenant fair-share
// accounting for the online scheduler service: a queue tree (tenant →
// project → queue) whose leaves carry a deserved quota, an over-quota
// weight, a priority class and an exponentially decayed usage history.
// The tree answers one question — given the live demand (in-flight work
// and decayed usage per leaf), how should a fixed capacity be divided? —
// and it answers deterministically: the same inputs always produce the
// same integer shares, so journal replay rebuilds the same admission
// decisions.
//
// The division runs in two passes at every tree level, mirroring
// KAI-Scheduler's queue controller in miniature:
//
//  1. Deserved pass: each active child is guaranteed its deserved quota
//     (scaled down proportionally when the level's capacity cannot cover
//     every active deserved sum).
//  2. Over-quota pass: remaining capacity is split in proportion to the
//     over-quota weights of active children. Integer remainders go to
//     the highest-priority, least-recently-hogging claimants (lowest
//     decayed usage per unit weight), which is where the time-decayed
//     history bites: between equal-weight tenants, the one that consumed
//     less recently wins the marginal slot.
//
// Inactive leaves (no in-flight work, not requesting) receive zero —
// their deserved capacity is lent to the active set and reclaimed the
// moment they return.
package fairshare

import (
	"fmt"
	"sort"
	"strings"
)

// DefaultHalfLife is the usage decay half-life, in virtual steps, when a
// configuration does not set one.
const DefaultHalfLife = 1024

// MaxDynamicLeaves caps leaves auto-created for unknown tenant headers.
// Beyond the cap, unknown tenants collapse onto the default leaf instead
// of growing the tree without bound (headers are client-controlled).
const MaxDynamicLeaves = 1024

// NodeConfig describes one tree node. A node with children is interior
// (its quota and weight govern the split at its parent's level); a node
// without children is a leaf that tenant headers can resolve to.
type NodeConfig struct {
	// Name is one path segment (letters, digits, ., _, -).
	Name string
	// Deserved is the node's guaranteed quota in admission slots. Zero
	// means no guarantee — the node competes only for over-quota capacity.
	Deserved float64
	// Weight is the node's over-quota weight. Zero means the node never
	// receives more than its deserved quota.
	Weight float64
	// Priority orders remainder slots in the over-quota pass: higher
	// priority claims marginal capacity first.
	Priority int
	// Children, when non-empty, make this node interior.
	Children []NodeConfig
}

// Config is a whole tree specification.
type Config struct {
	// HalfLife is the usage decay half-life in virtual steps.
	// 0 means DefaultHalfLife.
	HalfLife int64
	// Default names the leaf used for requests without a tenant header
	// (path form, e.g. "acme/batch"). Empty means a leaf named "default",
	// auto-created if the tree does not define one.
	Default string
	// Nodes are the top-level tenants.
	Nodes []NodeConfig
}

// Leaf is one admissible queue: the resolution target of a tenant header
// and the unit usage is accounted against.
type Leaf struct {
	// Path is the full slash-joined path from the root, e.g. "acme/ml".
	Path string
	// Deserved, Weight and Priority mirror the NodeConfig (or the dynamic
	// defaults: Deserved 0, Weight 1, Priority 0).
	Deserved float64
	Weight   float64
	Priority int
	// Dynamic marks leaves auto-created for unknown tenant headers.
	Dynamic bool

	index int   // position in Leaves(): where the leaf's State sits in flat states
	n     *node // the leaf's node, whose ancestors Share divides
}

// Index is the leaf's position in Leaves(), which is where Share reads
// its State. A leaf keeps its index for the tree's lifetime.
func (l *Leaf) Index() int { return l.index }

// State is one leaf's live inputs to a rebalance.
type State struct {
	// InFlight is the leaf's admitted-but-unfinished job count.
	InFlight int
	// Usage is the leaf's decayed usage, brought current to the
	// rebalance instant.
	Usage float64
	// Requesting marks the leaf whose admission triggered the rebalance:
	// it counts as active even with nothing yet in flight, so a first
	// submission is never shed for lack of a share.
	Requesting bool
}

type node struct {
	name     string
	path     string
	deserved float64
	weight   float64
	priority int
	parent   *node
	pos      int // index in parent.children
	children []*node
	leaf     *Leaf // non-nil iff len(children) == 0
}

// Tree is the compiled queue tree. It is not goroutine-safe, Shares and
// Share included (they divide on the tree's own scratch): the owner (the
// server's fairness controller) serializes access.
type Tree struct {
	halfLife int64
	root     *node
	leaves   map[string]*Leaf
	order    []*Leaf // registration order: config first, then dynamic
	def      *Leaf
	dynamic  int
	div      divider
}

// New compiles a Config into a Tree, creating the default leaf if the
// configuration does not define it.
func New(cfg Config) (*Tree, error) {
	hl := cfg.HalfLife
	if hl == 0 {
		hl = DefaultHalfLife
	}
	if hl < 1 {
		return nil, fmt.Errorf("fairshare: half-life %d, need ≥ 1", hl)
	}
	t := &Tree{
		halfLife: hl,
		root:     &node{},
		leaves:   make(map[string]*Leaf),
	}
	for _, nc := range cfg.Nodes {
		if err := t.build(t.root, "", nc, false); err != nil {
			return nil, err
		}
	}
	defPath := cfg.Default
	if defPath == "" {
		defPath = "default"
	}
	def, err := t.ensure(defPath)
	if err != nil {
		return nil, fmt.Errorf("fairshare: default leaf: %w", err)
	}
	t.def = def
	return t, nil
}

func (t *Tree) build(parent *node, prefix string, nc NodeConfig, dynamic bool) error {
	if err := checkSegment(nc.Name); err != nil {
		return err
	}
	if nc.Deserved < 0 || nc.Weight < 0 {
		return fmt.Errorf("fairshare: node %q: deserved and weight must be ≥ 0", nc.Name)
	}
	path := nc.Name
	if prefix != "" {
		path = prefix + "/" + nc.Name
	}
	for _, c := range parent.children {
		if c.name == nc.Name {
			return fmt.Errorf("fairshare: duplicate node %q", path)
		}
	}
	n := &node{
		name:     nc.Name,
		path:     path,
		deserved: nc.Deserved,
		weight:   nc.Weight,
		priority: nc.Priority,
		parent:   parent,
		pos:      len(parent.children),
	}
	parent.children = append(parent.children, n)
	if len(nc.Children) == 0 {
		n.leaf = &Leaf{
			Path:     path,
			Deserved: nc.Deserved,
			Weight:   nc.Weight,
			Priority: nc.Priority,
			Dynamic:  dynamic,
			index:    len(t.order),
			n:        n,
		}
		t.leaves[path] = n.leaf
		t.order = append(t.order, n.leaf)
		return nil
	}
	for _, child := range nc.Children {
		if err := t.build(n, path, child, dynamic); err != nil {
			return err
		}
	}
	return nil
}

func checkSegment(s string) error {
	if s == "" || len(s) > 64 {
		return fmt.Errorf("fairshare: path segment %q: need 1–64 characters", s)
	}
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
		default:
			return fmt.Errorf("fairshare: path segment %q: only letters, digits, '.', '_', '-'", s)
		}
	}
	return nil
}

// HalfLife returns the usage decay half-life in virtual steps.
func (t *Tree) HalfLife() int64 { return t.halfLife }

// Default returns the leaf for requests without a tenant header.
func (t *Tree) Default() *Leaf { return t.def }

// Leaves returns every leaf in deterministic order (configuration order,
// then dynamic creation order).
func (t *Tree) Leaves() []*Leaf { return t.order }

// Lookup returns the leaf with the exact path, if one exists.
func (t *Tree) Lookup(path string) (*Leaf, bool) {
	l, ok := t.leaves[path]
	return l, ok
}

// Ensure resolves a tenant header value to a leaf, auto-creating a
// dynamic leaf (Deserved 0, Weight 1) for unknown paths. Resolution
// rules, in order:
//
//   - "" resolves to the default leaf.
//   - An exact leaf path resolves to that leaf.
//   - A path extending an existing leaf resolves to that leaf (a
//     configured tenant absorbs its unconfigured sub-paths).
//   - A path naming an interior node resolves to that node's dynamic
//     "default" child leaf.
//   - Anything else creates a dynamic leaf along the path, until the
//     MaxDynamicLeaves cap, after which unknown tenants collapse onto
//     the default leaf.
//
// Malformed paths (bad characters, over-long, > 3 levels) resolve to the
// default leaf rather than erroring: the header is client-controlled and
// admission must stay cheap.
func (t *Tree) Ensure(path string) *Leaf {
	l, err := t.ensure(path)
	if err != nil || l == nil {
		return t.def
	}
	return l
}

func (t *Tree) ensure(path string) (*Leaf, error) {
	if path == "" {
		return t.def, nil
	}
	if l, ok := t.leaves[path]; ok {
		return l, nil
	}
	segs := strings.Split(path, "/")
	if len(segs) > 3 { // tenant → project → queue: three levels deep
		return nil, fmt.Errorf("fairshare: path %q deeper than 3 levels", path)
	}
	for _, s := range segs {
		if err := checkSegment(s); err != nil {
			return nil, err
		}
	}
	n := t.root
	prefix := ""
walk:
	for _, s := range segs {
		if n.leaf != nil {
			// A configured leaf absorbs unconfigured sub-paths.
			return n.leaf, nil
		}
		for _, c := range n.children {
			if c.name == s {
				n = c
				prefix = c.path
				continue walk
			}
		}
		// Unknown segment: extend dynamically from here.
		rest := segs[len(strings.Split(prefix, "/")):]
		if prefix == "" {
			rest = segs
		}
		return t.extend(n, prefix, rest)
	}
	// Path names an interior node: resolve to its dynamic default child.
	return t.extend(n, prefix, []string{"default"})
}

// extend grows a dynamic chain of nodes under n ending in a leaf.
func (t *Tree) extend(n *node, prefix string, segs []string) (*Leaf, error) {
	if t.dynamic >= MaxDynamicLeaves {
		return t.def, nil
	}
	nc := NodeConfig{Name: segs[len(segs)-1], Weight: 1}
	for i := len(segs) - 2; i >= 0; i-- {
		nc = NodeConfig{Name: segs[i], Weight: 1, Children: []NodeConfig{nc}}
	}
	if err := t.build(n, prefix, nc, true); err != nil {
		return nil, err
	}
	t.dynamic++
	leafPath := prefix
	if leafPath == "" {
		leafPath = strings.Join(segs, "/")
	} else {
		leafPath = prefix + "/" + strings.Join(segs, "/")
	}
	return t.leaves[leafPath], nil
}

// Shares divides capacity admission slots among the tree's leaves by
// hierarchical weighted fair share over the active set. states carries
// each leaf's live inputs (missing entries mean idle with zero usage);
// the result maps every leaf path to its integer bound, summing to
// exactly capacity whenever at least one active leaf has over-quota
// weight at every level. The result is deterministic: shares depend only
// on (tree, states, capacity), never on map iteration order.
func (t *Tree) Shares(states map[string]State, capacity int) map[string]int {
	out := make(map[string]int, len(t.leaves))
	for path := range t.leaves {
		out[path] = 0
	}
	if capacity <= 0 {
		return out
	}
	flat := make([]State, len(t.order))
	for i, l := range t.order {
		flat[i] = states[l.Path]
	}
	t.divide(t.root, 0, capacity, flat, out)
	return out
}

// Share is l's entry of Shares over flat states, indexed like Leaves()
// (a shorter slice leaves the missing leaves idle). It runs the same
// division, but only at the levels on l's ancestor path: at each, every
// sibling is gathered, since their claims decide the split, and only the
// child leading to l is divided further. It allocates nothing once the
// tree's scratch has grown to the tree.
func (t *Tree) Share(l *Leaf, states []State, capacity int) int {
	path := t.div.path[:0]
	for n := l.n; n != t.root; n = n.parent {
		path = append(path, n)
	}
	t.div.path = path
	alloc := max(capacity, 0)
	for i := len(path) - 1; i >= 0 && alloc > 0; i-- {
		alloc = t.split(path[i].parent, 0, alloc, states)[path[i].pos]
	}
	return alloc
}

// aggregate is one child's claim at a division level.
type aggregate struct {
	n        *node
	active   bool
	deserved float64
	weight   float64
	priority int
	usage    float64
	inFlight int
}

func (t *Tree) gather(n *node, states []State) aggregate {
	if n.leaf != nil {
		var st State
		if n.leaf.index < len(states) {
			st = states[n.leaf.index]
		}
		return aggregate{
			n:        n,
			active:   st.InFlight > 0 || st.Requesting,
			deserved: n.deserved,
			weight:   n.weight,
			priority: n.priority,
			usage:    st.Usage,
			inFlight: st.InFlight,
		}
	}
	agg := aggregate{n: n, deserved: n.deserved, weight: n.weight, priority: n.priority}
	var childD, childW float64
	for _, c := range n.children {
		ca := t.gather(c, states)
		agg.usage += ca.usage
		agg.inFlight += ca.inFlight
		if ca.active {
			agg.active = true
			childD += ca.deserved
			childW += ca.weight
		}
	}
	// An interior node without its own quota or weight claims on behalf
	// of its active children, so one configured level is enough.
	if agg.deserved == 0 {
		agg.deserved = childD
	}
	if agg.weight == 0 {
		agg.weight = childW
	}
	return agg
}

func (t *Tree) divide(n *node, depth, alloc int, states []State, out map[string]int) {
	if n.leaf != nil {
		out[n.path] = alloc
		return
	}
	grants := t.split(n, depth, alloc, states)
	for i, c := range n.children {
		if grants[i] > 0 {
			t.divide(c, depth+1, grants[i], states, out)
		}
	}
}

// split gathers n's children and divides alloc among them, returning each
// child's grant in the scratch row of depth: Shares' recursion still reads
// a level's grants while the levels below it divide.
func (t *Tree) split(n *node, depth, alloc int, states []State) []int {
	d := &t.div
	d.aggs, d.actives = d.aggs[:0], d.actives[:0]
	for i, c := range n.children {
		a := t.gather(c, states)
		d.aggs = append(d.aggs, a)
		if a.active {
			d.actives = append(d.actives, i)
		}
	}
	for len(d.grants) <= depth {
		d.grants = append(d.grants, nil)
	}
	grants := d.grants[depth]
	if cap(grants) < len(n.children) {
		grants = make([]int, len(n.children))
	}
	grants = grants[:len(n.children)]
	clear(grants)
	d.grants[depth] = grants
	d.divideLevel(grants, alloc)
	return grants
}

// divider is the division's scratch, kept on the tree and reused by every
// Shares and Share call: the admission gate divides once per submission.
type divider struct {
	path     []*node // Share's ancestors, leaf first
	grants   [][]int // per depth
	aggs     []aggregate
	actives  []int // indices into aggs
	weighted []int // indices into aggs
	targets  []float64
	ints     []int
	fracs    []frac
	claims   []int // apportion's: the aggregate each target claims for
}

type frac struct {
	idx int
	f   float64
}

// divideLevel splits alloc among the active children of one node, whose
// claims are d.aggs, adding each child's grant to grants: deserved pass
// first, over-quota pass on the remainder.
func (d *divider) divideLevel(grants []int, alloc int) {
	aggs, actives := d.aggs, d.actives
	if len(actives) == 0 || alloc <= 0 {
		return
	}
	var sumD float64
	for _, i := range actives {
		sumD += aggs[i].deserved
	}
	// Deserved pass: guarantee each active child its quota, scaled down
	// proportionally when capacity cannot cover the active deserved sum.
	remaining := alloc
	if sumD > 0 {
		scale := 1.0
		if sumD > float64(alloc) {
			scale = float64(alloc) / sumD
		}
		d.targets = d.targets[:0]
		for _, i := range actives {
			d.targets = append(d.targets, aggs[i].deserved*scale)
		}
		ints := d.apportion(min(alloc, int(sumD+0.5)), actives)
		for k, i := range actives {
			grants[i] = ints[k]
			remaining -= ints[k]
		}
	}
	if remaining <= 0 {
		return
	}
	// Over-quota pass: split what is left in proportion to weight.
	var sumW float64
	d.weighted = d.weighted[:0]
	for _, i := range actives {
		if aggs[i].weight > 0 {
			sumW += aggs[i].weight
			d.weighted = append(d.weighted, i)
		}
	}
	if sumW == 0 {
		return // strict quotas: leftover capacity stays unallocated
	}
	d.targets = d.targets[:0]
	for _, i := range d.weighted {
		d.targets = append(d.targets, float64(remaining)*aggs[i].weight/sumW)
	}
	ints := d.apportion(remaining, d.weighted)
	for j, i := range d.weighted {
		grants[i] += ints[j]
	}
}

// claimLess orders remainder claims: higher priority first, then lower
// decayed usage per unit weight, then larger fractional entitlement, then
// tree order for a total, deterministic order.
//
// Usage outranking the fractional part is what makes repeated rebalances
// converge onto the weight proportions: whoever won the marginal slot
// accrues more usage per unit weight and loses the next one, so the slot
// rotates in proportion to the fractional entitlements. Ordered by
// fraction first, the tenant with the larger fraction would win every
// rebalance and the long-run admitted ratio would stick at
// floor+1 : floor instead of the configured weights.
func claimLess(a, b aggregate, fa, fb float64) bool {
	if a.priority != b.priority {
		return a.priority > b.priority
	}
	ua, ub := normUsage(a), normUsage(b)
	if ua != ub {
		return ua < ub
	}
	if fa != fb {
		return fa > fb
	}
	return a.n.path < b.n.path
}

func normUsage(a aggregate) float64 {
	w := a.weight
	if w <= 0 {
		w = 1
	}
	return a.usage / w
}

// apportion converts the fractional d.targets into integers summing to
// exactly total: floor each target, then hand the remaining slots out in
// claim order — target i claims for the aggregate claims[i], ranked by
// claimLess given its fractional part. Deterministic by construction.
func (d *divider) apportion(total int, claims []int) []int {
	d.ints, d.fracs, d.claims = d.ints[:0], d.fracs[:0], claims
	sum := 0
	for i, v := range d.targets {
		if v < 0 {
			v = 0
		}
		d.ints = append(d.ints, int(v))
		sum += int(v)
		d.fracs = append(d.fracs, frac{i, v - float64(int(v))})
	}
	sort.Stable(d)
	for k := 0; sum < total && len(d.fracs) > 0; k = (k + 1) % len(d.fracs) {
		d.ints[d.fracs[k].idx]++
		sum++
	}
	return d.ints
}

// Len, Less and Swap sort apportion's fractions into claim order.
func (d *divider) Len() int { return len(d.fracs) }
func (d *divider) Less(i, j int) bool {
	a, b := d.fracs[i], d.fracs[j]
	return claimLess(d.aggs[d.claims[a.idx]], d.aggs[d.claims[b.idx]], a.f, b.f)
}
func (d *divider) Swap(i, j int) { d.fracs[i], d.fracs[j] = d.fracs[j], d.fracs[i] }
