package main

import (
	"flag"
	"os"
	"reflect"
	"strings"
	"testing"
)

// wantFlags is kradd's whole flag surface, sorted. A flag added or removed
// changes this list and README's table in the same commit.
var wantFlags = []string{
	"addr", "caps", "drain", "epoch", "event-buffer", "fair-config",
	"fair-halflife", "fairness", "follow", "fsync", "fsync-interval",
	"journal-dir", "k", "lease", "pick", "placement", "pprof",
	"promote-after", "queue", "replicate-heartbeat", "replicate-queue",
	"replicate-to", "retire-done", "sched", "seed", "shards",
	"snapshot-every", "steal", "steal-idle", "steal-max", "step",
	"step-batch",
}

// TestFlagSet pins the flag surface (32 names) and that README documents
// every one of them as `-name`.
func TestFlagSet(t *testing.T) {
	fs := flag.NewFlagSet("kradd", flag.ContinueOnError)
	registerFlags(fs)
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
}
