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
	"addr", "caps", "drain", "fairness", "follow",
	"fsync", "journal-dir", "lease", "placement", "pprof", "promote-after",
	"queue", "replicate-to", "shards",
	"snapshot-every", "steal", "step",
}

// removedFlags became constants (or went with the behaviour; -k is the
// length of -caps; the epoch is state in the journal directory; a shard
// keeps one status table, so there is nothing for -retire-done to drop; the
// replication heartbeat follows from -lease; a queue-tree file is
// -fairness=FILE). A stale script naming one must fail at startup.
var removedFlags = []string{
	"sched", "pick", "seed", "step-batch", "event-buffer", "fsync-interval",
	"steal-max", "steal-idle", "replicate-queue", "fair-halflife", "k",
	"epoch", "retire-done", "replicate-heartbeat", "fair-config",
}

func newFlagSet() *flag.FlagSet {
	fs := flag.NewFlagSet("kradd", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	registerFlags(fs)
	return fs
}

// TestFlagSet pins the flag surface (17 names), that README documents
// every one of them as `-name` and runs kradd with no other, and that each
// removed name is rejected.
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
	cmds := readmeKraddCommands(string(readme))
	if len(cmds) == 0 {
		t.Error("README.md's code blocks run kradd nowhere")
	}
	for _, cmd := range cmds {
		for _, arg := range cmd {
			name, _, _ := strings.Cut(strings.TrimLeft(arg, "-"), "=")
			if strings.HasPrefix(arg, "-") && fs.Lookup(name) == nil {
				t.Errorf("README.md runs kradd with -%s, which it does not have: %s", name, strings.Join(cmd, " "))
			}
		}
	}
	for _, name := range removedFlags {
		fs := newFlagSet()
		if err := fs.Parse([]string{"-" + name, "1"}); err == nil {
			t.Errorf("removed flag -%s still parses", name)
		}
	}
}

// TestFairnessFlag: bare -fairness is the built-in tree, =FILE a tree
// file, =false off; a file given as a separate word is left over as an
// argument, which kradd refuses.
func TestFairnessFlag(t *testing.T) {
	for _, tc := range []struct {
		argv string
		want fairFlag
		args int
	}{
		{"", "", 0},
		{"-fairness", "true", 0},
		{"-fairness=queues.conf", "queues.conf", 0},
		{"-fairness=queues.conf -fairness=false", "", 0},
		{"-fairness queues.conf", "true", 1},
	} {
		fs := newFlagSet()
		if err := fs.Parse(strings.Fields(tc.argv)); err != nil {
			t.Fatalf("%q: %v", tc.argv, err)
		}
		if got := *fs.Lookup("fairness").Value.(*fairFlag); got != tc.want || fs.NArg() != tc.args {
			t.Errorf("%q: %q with %d arguments left, want %q with %d", tc.argv, got, fs.NArg(), tc.want, tc.args)
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
		{"-journal-dir d -replicate-to :1 -lease 3s", ""},
		{"-journal-dir d -follow :1 -promote-after 5s", ""},
		{"-fsync never", "-journal-dir"},
		{"-snapshot-every 5", "-journal-dir"},
		{"-lease 3s", "-replicate-to"},
		{"-journal-dir d -follow :1 -lease 3s", "-replicate-to"},
		{"-promote-after 5s", "-follow"},
		{"-journal-dir d -replicate-to :1 -promote-after 5s", "-follow"},
		{"-replicate-to :1", "-journal-dir"},
		{"-follow :1", "-journal-dir"},
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

// readmeKraddCommands returns the arguments of every kradd command line in
// README's code blocks: the words after a word naming kradd (`kradd`,
// `./cmd/kradd`, `/tmp/kradd`), joined across trailing backslashes, up to
// a shell operator or a comment.
func readmeKraddCommands(readme string) [][]string {
	var cmds [][]string
	var cur []string
	inBlock, inCmd := false, false
	for _, line := range strings.Split(readme, "\n") {
		if strings.HasPrefix(line, "```") {
			inBlock, inCmd = !inBlock, false
			continue
		}
		if !inBlock {
			continue
		}
		if i := strings.Index(line, "#"); i >= 0 {
			line = line[:i]
		}
		words := strings.Fields(line)
		more := len(words) > 0 && words[len(words)-1] == "\\"
		if more {
			words = words[:len(words)-1]
		}
		if !inCmd {
			cur = nil
			for i, w := range words {
				if w == "kradd" || strings.HasSuffix(w, "/kradd") {
					inCmd, words = true, words[i+1:]
					break
				}
			}
		}
		if !inCmd {
			continue
		}
		for _, w := range words {
			if w == "&" || w == "|" || w == "&&" || w == ";" || strings.HasPrefix(w, ">") {
				more = false
				break
			}
			cur = append(cur, w)
		}
		if !more {
			cmds = append(cmds, cur)
			inCmd = false
		}
	}
	return cmds
}
