package main

import (
	"flag"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"
)

// wantFlags is kradd's whole flag surface, sorted. A flag added or removed
// changes this list and README's table in the same commit.
var wantFlags = []string{
	"addr", "caps", "drain", "epoch", "fair-config", "fairness", "follow",
	"fsync", "journal-dir", "lease", "placement", "pprof", "promote-after",
	"queue", "replicate-heartbeat", "replicate-to", "retire-done", "shards",
	"snapshot-every", "steal", "step",
}

// removedFlags became constants (or went with the behaviour; -k is the
// length of -caps). A stale script naming one must fail at startup.
var removedFlags = []string{
	"sched", "pick", "seed", "step-batch", "event-buffer", "fsync-interval",
	"steal-max", "steal-idle", "replicate-queue", "fair-halflife", "k",
}

func newFlagSet() *flag.FlagSet {
	fs := flag.NewFlagSet("kradd", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	registerFlags(fs)
	return fs
}

// TestFlagSet pins the flag surface (21 names), that README documents
// every one of them as `-name`, and that each removed name is rejected.
func TestFlagSet(t *testing.T) {
	fs := newFlagSet()
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) }) // lexical order
	if !reflect.DeepEqual(got, wantFlags) {
		t.Errorf("kradd registers %d flags %v,\nwant %d %v", len(got), got, len(wantFlags), wantFlags)
	}
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range got {
		if !strings.Contains(string(readme), "`-"+name+"`") {
			t.Errorf("README.md never mentions `-%s`", name)
		}
	}
	for _, name := range removedFlags {
		fs := newFlagSet()
		if err := fs.Parse([]string{"-" + name, "1"}); err == nil {
			t.Errorf("removed flag -%s still parses", name)
		}
	}
}

// TestCheckDependents: a flag that only acts inside a mode is refused when
// the mode is off, with a message naming the flag that turns it on.
func TestCheckDependents(t *testing.T) {
	for _, tc := range []struct {
		argv  string
		needs string // "" = accepted
	}{
		{"", ""},
		{"-journal-dir d -fsync interval -snapshot-every 0", ""},
		{"-journal-dir d -replicate-to :1 -lease 3s -replicate-heartbeat 50ms -epoch 2", ""},
		{"-journal-dir d -follow :1 -promote-after 5s -epoch 2", ""},
		{"-fsync never", "-journal-dir"},
		{"-snapshot-every 5", "-journal-dir"},
		{"-lease 3s", "-replicate-to"},
		{"-journal-dir d -follow :1 -lease 3s", "-replicate-to"},
		{"-replicate-heartbeat 50ms", "-replicate-to"},
		{"-promote-after 5s", "-follow"},
		{"-journal-dir d -replicate-to :1 -promote-after 5s", "-follow"},
		{"-epoch 2", "-replicate-to or -follow"},
	} {
		fs := newFlagSet()
		if err := fs.Parse(strings.Fields(tc.argv)); err != nil {
			t.Fatalf("%q: %v", tc.argv, err)
		}
		err := checkDependents(fs)
		switch {
		case tc.needs == "" && err != nil:
			t.Errorf("%q refused: %v", tc.argv, err)
		case tc.needs != "" && (err == nil || !strings.HasSuffix(err.Error(), "without "+tc.needs)):
			t.Errorf("%q: got %v, want a refusal naming %s", tc.argv, err, tc.needs)
		}
	}
}
