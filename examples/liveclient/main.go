// Liveclient demonstrates the online scheduler service: it submits a
// trickle of randomly generated K-DAG jobs to a kradd server over HTTP
// while the virtual clock runs, follows the SSE event stream, and reports
// each job's response time and slowdown against its solo execution bound.
//
// It self-hosts a server in-process unless pointed at a running daemon:
//
//	go run ./examples/liveclient
//	go run ./examples/liveclient -addr http://localhost:8080
//
// It is an example, not a load client: a shed submission or a dropped
// connection ends the demo. cmd/kradreplay is the load generator.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"sort"
	"strings"
	"time"

	"krad/internal/core"
	"krad/internal/sched"
	"krad/internal/server"
	"krad/internal/sim"
	"krad/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("liveclient: ")
	addr := flag.String("addr", "", "kradd base URL (empty = self-host an in-process server)")
	jobs := flag.Int("jobs", 12, "number of jobs to submit")
	gap := flag.Duration("gap", 150*time.Millisecond, "wall-clock gap between submissions")
	seed := flag.Int64("seed", 7, "workload seed")
	flag.Parse()

	base := strings.TrimRight(*addr, "/")
	if base == "" {
		base = selfHost()
	}
	// The machine shape comes from the server, not from assumptions. (JSON
	// keys match struct fields case-insensitively: "stats", "id", "span".)
	var health struct{ Stats server.Stats }
	if err := call(http.MethodGet, base+"/healthz", nil, &health); err != nil {
		log.Fatalf("cannot reach the daemon (start one with: go run ./cmd/kradd): %v", err)
	}
	st := health.Stats
	fmt.Printf("server %s: scheduler=%s K=%d caps=%v shards=%d\n\n", base, st.Scheduler, st.K, st.Caps, st.Shards)

	// The job mix is generated client-side; the server only sees graphs.
	specs, err := workload.Mix{K: st.K, Jobs: *jobs, MinSize: 4, MaxSize: 24, Seed: *seed}.Generate()
	if err != nil {
		log.Fatal(err)
	}
	// Subscribe before the first submission so no completion is missed.
	events, err := streamEvents(base)
	if err != nil {
		log.Fatalf("event stream: %v", err)
	}
	running := make(map[int]bool, len(specs))
	for _, spec := range specs {
		var out struct{ ID int }
		if err := call(http.MethodPost, base+"/v1/jobs", map[string]any{"graph": spec.Graph}, &out); err != nil {
			log.Fatal(err)
		}
		running[out.ID] = true
		fmt.Printf("submitted job %2d  tasks=%-3d span=%-3d work=%v\n",
			out.ID, spec.Graph.NumTasks(), spec.Graph.Span(), spec.Graph.WorkVector())
		time.Sleep(*gap)
	}

	// Watch the stream until every submitted job has completed.
	var rows []row
	for len(running) > 0 {
		select {
		case ev, open := <-events:
			if !open {
				log.Fatalf("event stream closed; %d jobs unfinished", len(running))
			}
			for _, id := range ev.Completed {
				if running[id] {
					delete(running, id)
					fmt.Printf("  step %4d: job %d done (%d still running)\n", ev.Step, id, len(running))
					rows = append(rows, finished(base, st.Caps, id))
				}
			}
		case <-time.After(30 * time.Second):
			log.Fatalf("no step event in 30s; %d jobs unfinished", len(running))
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].slowdown() > rows[j].slowdown() })
	fmt.Printf("\nall %d jobs completed\n\njob  response  solo-bound  slowdown\n", len(rows))
	for _, r := range rows {
		fmt.Printf("%3d  %8d  %10d  %7.2fx\n", r.id, r.response, r.solo, r.slowdown())
	}
}

// row is one finished job: its response time against its solo lower bound
// max(span, max_α ceil(work_α / P_α)) — the best any schedule could do for
// that job alone on one shard's machine.
type row struct{ id, response, solo int }

func (r row) slowdown() float64 { return float64(r.response) / float64(r.solo) }

// finished reads a completed job's status back and computes its row.
func finished(base string, caps []int, id int) row {
	var js struct { // the slice of the GET /v1/jobs/{id} wire form the table needs
		Response, Span int
		Work           []int
	}
	if err := call(http.MethodGet, fmt.Sprintf("%s/v1/jobs/%d", base, id), nil, &js); err != nil {
		log.Fatal(err)
	}
	solo := js.Span
	for a, w := range js.Work {
		if lb := (w + caps[a] - 1) / caps[a]; lb > solo {
			solo = lb
		}
	}
	return row{id, js.Response, solo}
}

// selfHost starts an in-process kradd (K=2, caps 4 and 2) on a loopback
// port, its clock paced so submissions interleave with execution, and
// returns its base URL.
func selfHost() string {
	svc, err := server.New(server.Config{
		Sim:          sim.Config{K: 2, Caps: []int{4, 2}, ValidateAllotments: true},
		NewScheduler: func() sched.Scheduler { return sched.WithFloors(core.NewKRAD(2)) },
		StepEvery:    5 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	svc.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go func() { _ = http.Serve(ln, svc.Handler()) }() // serves until the process exits
	return "http://" + ln.Addr().String()
}

// call does one JSON round trip: body (nil for none) goes up, a 2xx answer
// is decoded into out.
func call(method, url string, body, out any) error {
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			return err
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: status %s", method, url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// streamEvents is a minimal SSE client: it opens /v1/events and forwards
// each "data:" payload as a decoded server.Event until the server hangs up
// (then the channel closes) or the process exits.
func streamEvents(base string) (<-chan server.Event, error) {
	resp, err := http.Get(base + "/v1/events")
	if err != nil {
		return nil, err
	}
	// The buffer holds the step events that arrive while main sleeps
	// between submissions.
	out := make(chan server.Event, 1024)
	go func() {
		defer resp.Body.Close()
		defer close(out)
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			var ev server.Event
			if data, ok := strings.CutPrefix(sc.Text(), "data: "); ok && json.Unmarshal([]byte(data), &ev) == nil {
				out <- ev
			}
		}
	}()
	return out, nil
}
