package fairshare

import (
	"reflect"
	"strings"
	"testing"
)

func TestParseConfig(t *testing.T) {
	in := `
# fleet fair-share policy
halflife 2048
default acme/batch

queue acme           deserved=4 weight=2
queue acme/ml        deserved=2 weight=3 priority=1
queue acme/batch     # weight defaults to 1
queue beta           weight=0.5
`
	cfg, err := ParseConfig(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := Config{
		HalfLife: 2048,
		Default:  "acme/batch",
		Nodes: []NodeConfig{
			{Name: "acme", Deserved: 4, Weight: 2, Children: []NodeConfig{
				{Name: "ml", Deserved: 2, Weight: 3, Priority: 1},
				{Name: "batch", Weight: 1},
			}},
			{Name: "beta", Weight: 0.5},
		},
	}
	if !reflect.DeepEqual(cfg, want) {
		t.Errorf("ParseConfig:\n got %+v\nwant %+v", cfg, want)
	}
	// The parsed config must compile.
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Default().Path != "acme/batch" {
		t.Errorf("default leaf %q", tr.Default().Path)
	}
	if l, ok := tr.Lookup("acme/ml"); !ok || l.Priority != 1 || l.Weight != 3 {
		t.Errorf("acme/ml leaf %+v", l)
	}
}

// TestParseConfigChildBeforeParent checks declaration order does not
// matter for nesting: a child line may precede (or omit) its parent.
func TestParseConfigChildBeforeParent(t *testing.T) {
	cfg, err := ParseConfig(strings.NewReader("queue acme/ml weight=2\nqueue acme deserved=3\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Nodes) != 1 || cfg.Nodes[0].Name != "acme" || cfg.Nodes[0].Deserved != 3 {
		t.Fatalf("nodes %+v", cfg.Nodes)
	}
	if kids := cfg.Nodes[0].Children; len(kids) != 1 || kids[0].Name != "ml" || kids[0].Weight != 2 {
		t.Fatalf("children %+v", cfg.Nodes[0].Children)
	}

	// Orphan intermediate: the undeclared parent aggregates its children.
	cfg, err = ParseConfig(strings.NewReader("queue acme/ml weight=2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Nodes) != 1 || cfg.Nodes[0].Weight != 0 || len(cfg.Nodes[0].Children) != 1 {
		t.Fatalf("orphan parent %+v", cfg.Nodes)
	}
}

func TestParseConfigErrors(t *testing.T) {
	cases := []struct {
		name, in, wantErr string
	}{
		{"unknown directive", "banana 3\n", "unknown directive"},
		{"halflife junk", "halflife soon\n", "halflife"},
		{"halflife zero", "halflife 0\n", "halflife"},
		{"halflife dup", "halflife 5\nhalflife 6\n", "duplicate halflife"},
		{"default junk path", "default a b\n", "default takes one path"},
		{"default dup", "default a\ndefault b\n", "duplicate default"},
		{"queue no path", "queue\n", "queue takes a path"},
		{"queue dup", "queue a\nqueue a\n", "duplicate queue"},
		{"bad attribute", "queue a color=red\n", "unknown attribute"},
		{"bad deserved", "queue a deserved=lots\n", "deserved"},
		{"negative weight", "queue a weight=-2\n", "weight"},
		{"huge weight", "queue a weight=1e300\n", "weight"},
		{"bad priority", "queue a priority=1.5\n", "priority"},
		{"deep path", "queue a/b/c/d\n", "deeper than 3 levels"},
		{"bad segment", "queue a//b\n", "segment"},
		{"dup attribute", "queue a weight=1 weight=2\n", "bad attribute"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ParseConfig(strings.NewReader(c.in))
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("ParseConfig(%q) err = %v, want containing %q", c.in, err, c.wantErr)
			}
			if err != nil && !strings.Contains(err.Error(), "line ") {
				t.Errorf("error not located by line: %v", err)
			}
		})
	}
}

// FuzzFairConfig checks the -fair-config parser never panics and that
// every accepted configuration compiles into a valid tree whose shares
// sum within capacity.
func FuzzFairConfig(f *testing.F) {
	f.Add("queue acme weight=2\nqueue beta weight=1\n")
	f.Add("halflife 64\ndefault d\nqueue a/b deserved=1.5 weight=0 priority=-3\n")
	f.Add("# only comments\n\n")
	f.Add("queue a\nqueue a/b\n")
	f.Add("halflife 99999999999999999999\n")
	f.Add("queue \x00\n")
	f.Fuzz(func(t *testing.T, in string) {
		cfg, err := ParseConfig(strings.NewReader(in))
		if err != nil {
			return
		}
		tr, err := New(cfg)
		if err != nil {
			// Parse accepted what New rejects: the parser must be at
			// least as strict as the compiler.
			t.Fatalf("parsed config does not compile: %v\ninput: %q", err, in)
		}
		leaves := tr.Leaves()
		states := make([]State, len(leaves))
		for i := range leaves {
			states[i] = State{InFlight: i % 3, Usage: float64(i) * 1.5, Requesting: i%2 == 0}
		}
		const capacity = 17
		shares := tr.Shares(states, capacity)
		sum := 0
		for i, v := range shares {
			if v < 0 {
				t.Fatalf("negative share %d for %q", v, leaves[i].Path)
			}
			sum += v
		}
		if sum > capacity {
			t.Fatalf("shares sum %d exceeds capacity %d: %v", sum, capacity, shares)
		}
	})
}
