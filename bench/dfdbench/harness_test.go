package main

import (
	"encoding/json"
	"net"
	"net/http"
	"os"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dfdeques"
	"dfdeques/internal/serve/api"
)

func TestOpenScheduleIsAPureFunctionOfTheSeed(t *testing.T) {
	plan := func(seed int64) []arrival {
		return openSchedule(seed, 2*time.Second, 300, 4, []float64{0.7, 0.2, 0.1}, 500*time.Millisecond, 32)
	}
	a, b, c := plan(7), plan(7), plan(8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different plans")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("two seeds gave the same plan")
	}
	bursts := 0
	for i, x := range a {
		if i > 0 && x.due < a[i-1].due {
			t.Fatalf("arrival %d is due before arrival %d", i, i-1)
		}
		if x.due%(500*time.Millisecond) == 0 && x.tenant == 0 {
			bursts++
		}
	}
	if bursts < 3*32 { // at 0.5 s, 1 s and 1.5 s
		t.Fatalf("%d burst arrivals in 2 s, want 96", bursts)
	}
	if !reflect.DeepEqual(variantDraws(7, 100, 8), variantDraws(7, 100, 8)) || reflect.DeepEqual(variantDraws(7, 100, 8), variantDraws(8, 100, 8)) {
		t.Fatal("job draws do not follow the seed")
	}
}

func TestPercentileAndMedian(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.9, 9}, {0.99, 10}, {0.01, 1}, {1, 10}} {
		if got := percentile(v, c.q); got != c.want {
			t.Errorf("percentile(1..10, %g) = %g, want %g", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median(9, 1, 5) = %g, want 5", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4, 1, 3, 2) = %g, want 2.5", got)
	}
}

// One stalled window must not move the rate: four windows finish 100 jobs
// each, one finishes 10, and the median is still 100 per window.
func TestJobsPerSecondIsTheMedianOfTheWindows(t *testing.T) {
	const dur = 5 * time.Second
	var samples []sample
	for w := 0; w < windows; w++ {
		n := 100
		if w == 2 {
			n = 10
		}
		for i := 0; i < n; i++ {
			samples = append(samples, sample{at: time.Duration(w) * time.Second, latency: time.Millisecond, ok: true})
		}
	}
	samples = append(samples,
		sample{at: time.Second, latency: time.Millisecond},                  // failed: not counted
		sample{at: 4900 * time.Millisecond, latency: time.Second, ok: true}) // finished after the period
	if got := jobsPerSec(samples, dur); got != 100 {
		t.Fatalf("jobsPerSec = %g, want 100", got)
	}
}

func TestEndToEndCountsFailedJobsAgainstEveryShare(t *testing.T) {
	p := period{dur: 5 * time.Second, cpuSec: 0.3, mallocs: 300}
	for i := 0; i < 4; i++ {
		p.samples = append(p.samples, sample{at: time.Duration(i) * time.Second, latency: time.Duration(i+1) * time.Millisecond, ok: i < 3, hwOverS1: float64(i + 1)})
	}
	m := p.endToEnd(2, []float64{0.3, 0.1, 0.2})
	want := map[string]float64{
		"setup_s": 0.2, "job_latency_p50_ms": 2, "slo_met_share": 0.5, "verified_share": 0.75,
		"cpu_ms_per_job": 100, "heap_hw_over_s1": 2, "allocs_per_job": 100,
	}
	for name, v := range want {
		if got := m[name].Value; got != v {
			t.Errorf("%s = %g, want %g", name, got, v)
		}
	}
	for _, d := range endToEndDefs {
		if got, ok := m[d.name]; !ok || got.Unit != d.unit {
			t.Errorf("%s: reported %+v, want unit %s", d.name, got, d.unit)
		}
	}
}

// The open loop's latency runs from the instant a job was due: a request
// sent 3 ms late whose job took 2 ms inside the server waited 5 ms.
func TestOpenLatencyRunsFromTheDueTime(t *testing.T) {
	tree := api.TreeSpec{Depth: 1, Alloc: 128}
	st := api.JobStatus{ID: "j1", Status: "done", LatencyMs: 2, Stats: &dfdeques.JobStats{TotalThreads: 3, HeapHW: 256}}
	s := openSample(10*time.Millisecond, 13*time.Millisecond, st, nil, tree)
	if !s.ok || s.at != 10*time.Millisecond || s.late != 3*time.Millisecond || s.latency != 5*time.Millisecond || s.hwOverS1 != 2 {
		t.Fatalf("sample %+v: want ok, at 10 ms, 3 ms late, 5 ms latency, heap ratio 2", s)
	}
}

func TestCheckTreeRejectsEveryWrongOutput(t *testing.T) {
	tree := api.TreeSpec{Depth: 2, Alloc: 128}
	good := func() api.JobStatus {
		return api.JobStatus{ID: "j1", Status: "done", Stats: &dfdeques.JobStats{TotalThreads: 7}}
	}
	if err := checkTree(good(), tree); err != nil {
		t.Fatalf("a correct job: %v", err)
	}
	for name, spoil := range map[string]func(*api.JobStatus){
		"failed":      func(st *api.JobStatus) { st.Status = "failed" },
		"no stats":    func(st *api.JobStatus) { st.Stats = nil },
		"threads":     func(st *api.JobStatus) { st.Stats.TotalThreads = 6 },
		"dummies":     func(st *api.JobStatus) { st.Stats.DummyThreads = 1 },
		"leaked heap": func(st *api.JobStatus) { st.Stats.HeapLive = 8 },
	} {
		st := good()
		spoil(&st)
		if checkTree(st, tree) == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// Both lib jobs pass their own checks on a real runtime, and a wrong
// serial reference is caught.
func TestLibJobsAreCheckedAgainstTheSerialReference(t *testing.T) {
	for _, name := range []string{"lib-forkjoin-fine", "lib-quota-steal"} {
		w := *workloadByName(name)
		w.warmJobs = 2
		e := libReference(&w, 5)
		if err := e.setUp(5, false, false); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if e.s1 <= 0 {
			t.Errorf("%s: serial space %d, want a positive byte count", name, e.s1)
		}
		e.want[0]++
		if _, err := e.runJob(0); err == nil {
			t.Errorf("%s: a job whose checksum differs from the reference was accepted", name)
		}
		e.close()
	}
}

// fakeServer answers wait=1 tree submissions the way dfdserve does, and
// dies, connections and all, after dieAfter of them (never for 0).
type fakeServer struct {
	srv      *http.Server
	addr     string
	died     chan struct{}
	dieOnce  sync.Once
	answered atomic.Int64
}

func startFake(t *testing.T, addr string, dieAfter int64) *fakeServer {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeServer{addr: ln.Addr().String(), died: make(chan struct{})}
	f.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req api.JobRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if n := f.answered.Add(1); dieAfter > 0 && n > dieAfter {
			f.die()
			return
		}
		_ = json.NewEncoder(w).Encode(api.JobStatus{
			ID: "j1", Status: "done", LatencyMs: 0.05,
			Stats: &dfdeques.JobStats{TotalThreads: 1<<(req.Tree.Depth+1) - 1, HeapHW: req.Tree.Alloc},
		})
	})}
	go f.srv.Serve(ln)
	return f
}

func (f *fakeServer) die() {
	f.dieOnce.Do(func() {
		f.srv.Close()
		close(f.died)
	})
}

func (f *fakeServer) URL() string           { return "http://" + f.addr }
func (f *fakeServer) PID() int              { return 0 }
func (f *fakeServer) Died() <-chan struct{} { return f.died }
func (f *fakeServer) Stop()                 { f.srv.Close() }

// A server that dies in the middle of the window costs failed requests and
// one counted crash; the run neither hangs nor aborts, and goes on against
// the restarted server.
func TestADeadServerCostsFailedJobsAndOneCrash(t *testing.T) {
	w := *workloadByName("serve-small-closed")
	w.warmJobs = 10
	first := startFake(t, "127.0.0.1:0", 60)
	var launches atomic.Int32 // the supervisor's goroutine launches the second
	e := &serveEnv{w: &w, seed: 1}
	err := e.setUp(func() (target, error) {
		if launches.Add(1) == 1 {
			return first, nil
		}
		return startFake(t, first.addr, 0), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()

	done := make(chan period, 1)
	go func() { done <- e.measure(500*time.Millisecond, nil) }()
	var p period
	select {
	case p = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("the window did not end after the server died")
	}
	m := p.endToEnd(w.sloMs, []float64{0.1})
	if n := launches.Load(); p.crashes != 1 || n != 2 {
		t.Errorf("%d crashes counted and %d launches, want 1 and 2", p.crashes, n)
	}
	if p.failed() == 0 || m["verified_share"].Value >= 1 {
		t.Errorf("%d failed jobs, verified share %g: want some failed", p.failed(), m["verified_share"].Value)
	}
	if ok := len(p.samples) - p.failed(); ok < 100 {
		t.Errorf("%d jobs verified: the loop did not go on against the restarted server", ok)
	}
}

// BENCHMARK.json and the tables in this package say the same thing.
func TestBenchmarkJSONMatchesTheTables(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type row struct{ Name, Unit, Better string }
	var doc struct {
		Command   []string
		Paths     []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []row `json:"end_to_end"`
		PerLayer  []row `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Command, []string{"bash", "bench/run.sh"}) || !reflect.DeepEqual(doc.Paths, []string{"bench"}) {
		t.Errorf("command %v and paths %v, want bash bench/run.sh and bench", doc.Command, doc.Paths)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the harness %q: %q", i, doc.Workloads[i], w.name, w.why)
		}
	}
	same := func(kind string, rows []row, defs []def) {
		if len(rows) != len(defs) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the harness", len(rows), kind, len(defs))
		}
		for i, d := range defs {
			if (rows[i] != row{d.name, d.unit, d.better}) {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the harness %+v", kind, i, rows[i], d)
			}
		}
	}
	same("end-to-end", doc.EndToEnd, endToEndDefs)
	same("per-layer", doc.PerLayer, perLayerDefs)
}
