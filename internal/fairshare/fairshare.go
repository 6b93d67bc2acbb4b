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
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
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
// its State. Leaves are numbered in creation order from 0, and a leaf
// keeps its index for the tree's lifetime, so a caller can keep per-leaf
// state in slices indexed by it.
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
	late     bool  // created after New: ordered by name among its late siblings
}

// Tree is the compiled queue tree. It is safe for concurrent use: every
// method that reads or grows it takes the tree's lock, which is innermost
// (nothing is locked under it), so callers may hold their own locks.
//
// A node created after New sits among its siblings by name, after the
// ones New built, so the tree's shape, and with it every division, does
// not depend on the order tenants first appeared in.
type Tree struct {
	halfLife int64
	root     *node
	def      *Leaf
	static   int // leaves New built; 0 while it builds

	mu      sync.Mutex
	leaves  map[string]*Leaf
	order   []*Leaf // creation order: index order
	dynamic int
	div     divider
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
	if t.def = t.ensure(defPath); t.def == nil {
		return nil, fmt.Errorf("fairshare: default leaf %q is not a valid leaf path", defPath)
	}
	t.static = len(t.order)
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
	if parent.child(nc.Name) != nil {
		return fmt.Errorf("fairshare: duplicate node %q", path)
	}
	n := &node{
		name:     nc.Name,
		path:     path,
		deserved: nc.Deserved,
		weight:   nc.Weight,
		priority: nc.Priority,
		parent:   parent,
		pos:      len(parent.children),
		late:     t.static > 0,
	}
	parent.children = append(parent.children, n)
	if n.late {
		// Bubble n down past the late siblings that sort after it.
		for i := n.pos; i > 0 && parent.children[i-1].late && parent.children[i-1].name > n.name; i-- {
			parent.children[i-1], parent.children[i] = n, parent.children[i-1]
			parent.children[i].pos, n.pos = i, i-1
		}
	}
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

func (n *node) child(name string) *node {
	for _, c := range n.children {
		if c.name == name {
			return c
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

// Leaves returns every leaf in index order: the ones New built in
// configuration order, then the rest in creation order. The slice is a
// snapshot; leaves created later are not in it.
func (t *Tree) Leaves() []*Leaf {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.order[:len(t.order):len(t.order)]
}

// Listing returns every leaf in listing order: the ones New built in
// configuration order, then every later one by path. Unlike index order,
// it does not depend on the order tenants first appeared in.
func (t *Tree) Listing() []*Leaf {
	t.mu.Lock()
	out := slices.Clone(t.order)
	t.mu.Unlock()
	slices.SortFunc(out[t.static:], func(a, b *Leaf) int { return strings.Compare(a.Path, b.Path) })
	return out
}

// Lookup returns the leaf Ensure(path) would return, and false when
// Ensure would create one. It creates nothing.
func (t *Tree) Lookup(path string) (*Leaf, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	l, _, _ := t.resolve(path)
	return l, l != nil
}

// Ensure resolves a tenant header value to a leaf, auto-creating a
// dynamic leaf (Deserved 0, Weight 1) for unknown paths. Resolution
// rules, in order:
//
//   - "" resolves to the default leaf.
//   - An exact leaf path resolves to that leaf.
//   - A path extending an existing leaf resolves to that leaf (a
//     configured tenant absorbs its unconfigured sub-paths).
//   - A path naming an interior node resolves to that node's "default"
//     child leaf, created dynamically if it does not exist yet.
//   - Anything else creates a dynamic leaf along the path, until the
//     MaxDynamicLeaves cap, after which unknown tenants collapse onto
//     the default leaf.
//
// Malformed paths (bad characters, over-long, > 3 levels) resolve to the
// default leaf rather than erroring: the header is client-controlled and
// admission must stay cheap.
func (t *Tree) Ensure(path string) *Leaf {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ensure(path)
}

func (t *Tree) ensure(path string) *Leaf {
	l, n, segs := t.resolve(path)
	if l == nil && n != nil { // n is nil too for a malformed path while New has no default leaf yet
		l = t.extend(n, segs)
	}
	return l
}

// resolve applies Ensure's rules without creating anything: it returns
// the leaf, or, when Ensure would create one, the node its dynamic chain
// hangs from and the chain's segments.
func (t *Tree) resolve(path string) (*Leaf, *node, []string) {
	if path == "" {
		return t.def, nil, nil
	}
	if l, ok := t.leaves[path]; ok {
		return l, nil, nil
	}
	segs := strings.Split(path, "/") // tenant → project → queue: three levels deep
	if len(segs) > 3 || slices.ContainsFunc(segs, func(s string) bool { return checkSegment(s) != nil }) {
		return t.def, nil, nil
	}
	n, i := t.root, 0
	for ; i < len(segs) && n.leaf == nil; i++ {
		c := n.child(segs[i])
		if c == nil {
			break
		}
		n = c
	}
	switch {
	case n.leaf != nil: // a configured leaf absorbs its unconfigured sub-paths
		return n.leaf, nil, nil
	case i == len(segs): // an interior node: its default child
		if c := n.child("default"); c != nil {
			return cmp.Or(c.leaf, t.def), nil, nil
		}
		segs, i = []string{"default"}, 0
	}
	if t.dynamic >= MaxDynamicLeaves {
		return t.def, nil, nil
	}
	return nil, n, segs[i:]
}

// extend grows the dynamic chain resolve found under n, ending in a leaf.
func (t *Tree) extend(n *node, segs []string) *Leaf {
	nc := NodeConfig{Name: segs[len(segs)-1], Weight: 1}
	for i := len(segs) - 2; i >= 0; i-- {
		nc = NodeConfig{Name: segs[i], Weight: 1, Children: []NodeConfig{nc}}
	}
	if err := t.build(n, n.path, nc, true); err != nil {
		panic(err) // resolve checked every segment, and that n has no such child
	}
	t.dynamic++
	return t.order[len(t.order)-1]
}

// Request is the gate's question: the leaf Ensure(path) would return (nil
// if Ensure would create it), that leaf's path, and its share over states
// as the requester. It creates nothing: a leaf Ensure would create is
// grown under the lock, divided for, and unlinked before Request returns,
// so the tree, its listing and every index are as they were. (Growing the
// real chain, rather than adding a synthetic claimant to the division,
// keeps one path: the leaf sits and claims exactly as Ensure would make it.)
func (t *Tree) Request(path string, states []State, capacity int) (leaf *Leaf, resolved string, share int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	l, n, segs := t.resolve(path)
	if leaf = l; l == nil {
		l = t.extend(n, segs)
		defer t.unlink(n, l)
		states = states[:min(len(states), l.index)] // the new leaf starts idle
	}
	t.div.req = l.n
	share = t.share(l, states, capacity)
	t.div.req = nil
	return leaf, l.Path, share
}

// unlink removes the chain extend grew under n for l.
func (t *Tree) unlink(n *node, l *Leaf) {
	head := l.n
	for head.parent != n {
		head = head.parent
	}
	n.children = slices.Delete(n.children, head.pos, head.pos+1)
	for i := head.pos; i < len(n.children); i++ {
		n.children[i].pos = i
	}
	delete(t.leaves, l.Path)
	t.order = slices.Delete(t.order, l.index, l.index+1)
	t.dynamic--
}

// Shares divides capacity admission slots among the tree's leaves by
// hierarchical weighted fair share over the active set. states carries
// each leaf's live inputs, indexed like Leaves() (a shorter slice leaves
// the missing leaves idle); the result is indexed the same way, one bound
// per leaf, summing to exactly capacity whenever at least one active leaf
// has over-quota weight at every level. The result is deterministic:
// shares depend only on (tree, states, capacity).
func (t *Tree) Shares(states []State, capacity int) []int {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]int, len(t.order))
	if capacity > 0 {
		t.divide(t.root, 0, capacity, states, out)
	}
	return out
}

// Share is l's entry of Shares over flat states, indexed like Leaves()
// (a shorter slice leaves the missing leaves idle). It runs the same
// division, but only at the levels on l's ancestor path: at each, every
// sibling is gathered, since their claims decide the split, and only the
// child leading to l is divided further. It allocates nothing once the
// tree's scratch has grown to the tree.
func (t *Tree) Share(l *Leaf, states []State, capacity int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.share(l, states, capacity)
}

func (t *Tree) share(l *Leaf, states []State, capacity int) int {
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
			active:   st.InFlight > 0 || st.Requesting || n == t.div.req,
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

func (t *Tree) divide(n *node, depth, alloc int, states []State, out []int) {
	if n.leaf != nil {
		out[n.leaf.index] = alloc
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
	req      *node   // Request's leaf, active whatever its State
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
