package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dfdeques/bench/sut"
	"dfdeques/internal/serve/api"
	"dfdeques/internal/serve/client"
)

// target is one running incarnation of the system under test; *sut.Proc
// in the benchmark, an in-process fake in the harness's own tests.
type target interface {
	URL() string
	PID() int // 0 when there is no process to account
	Died() <-chan struct{}
	Stop()
}

// launcher starts a fresh incarnation at the same address and returns
// once it answers /healthz.
type launcher func() (target, error)

// supervisor keeps one incarnation running: when it dies it counts a
// crash and starts the next, so that a window goes on after the known
// Submit race (bench/README.md) has killed the child.
type supervisor struct {
	launch launcher

	mu      sync.Mutex
	cur     target
	gen     int // incarnation number; job ids are only unique within one
	crashes int

	quit chan struct{}
	done chan struct{}
}

func supervise(launch launcher) (*supervisor, error) {
	first, err := launch()
	if err != nil {
		return nil, err
	}
	s := &supervisor{launch: launch, cur: first, quit: make(chan struct{}), done: make(chan struct{})}
	go s.watch()
	return s, nil
}

func (s *supervisor) watch() {
	defer close(s.done)
	for {
		cur, _ := s.current()
		select {
		case <-s.quit:
			return
		case <-cur.Died():
		}
		s.mu.Lock()
		s.crashes++
		s.mu.Unlock()
		note("the system under test died; restarting it")
		next, err := s.launch()
		if err != nil {
			// Nothing answers from here on: every later request fails and is
			// counted, which is the honest outcome.
			note("restart failed: %v", err)
			return
		}
		s.mu.Lock()
		s.cur = next
		s.gen++
		s.mu.Unlock()
	}
}

func (s *supervisor) current() (target, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cur, s.gen
}

func (s *supervisor) crashCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.crashes
}

// close stops watching and stops the current incarnation.
func (s *supervisor) close() {
	close(s.quit)
	<-s.done
	s.cur.Stop()
}

// serveEnv is a warm dfdserve child and the clients that load it.
type serveEnv struct {
	w       *workload
	seed    int64
	periods int64 // open-loop periods planned so far
	sup     *supervisor
	clients []*client.Client // one keep-alive connection each
	kinds   []int            // job kinds for the closed loop, drawn from the mix
}

// requestTimeout bounds every request, so that a hung child costs failed
// requests and not a hung benchmark.
const requestTimeout = 10 * time.Second

// childLauncher starts dfdserve for w on a port of its own choosing; the
// child's output goes to log.
func childLauncher(w *workload, seed int64, bin, outDir string, log *os.File) (launcher, error) {
	addr, err := sut.FreeAddr()
	if err != nil {
		return nil, err
	}
	args, err := childArgs(w, seed, outDir)
	if err != nil {
		return nil, err
	}
	return func() (target, error) {
		p, err := sut.Start(bin, addr, log, args...)
		if err != nil {
			return nil, err
		}
		ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
		defer cancel()
		if err := p.WaitHealthy(ctx); err != nil {
			p.Stop()
			return nil, err
		}
		return p, nil
	}, nil
}

// childArgs writes dfdserve's configuration for w and returns the flags
// that point at it. The file, not the flags, because two settings have no
// flag: retain_jobs, so that every job of an open-loop period can still be
// read back after it, and max_inflight.
//
// max_inflight is 1: the child runs one job at a time, however many are
// queued. With more, Submit runs while another job's threads sit in the
// deques, and a known race there (bench/README.md, "Known defect") kills
// the child about once in 85 s of serve-small-closed. A benchmark whose
// operations fail measures nothing, so until that is fixed the serve
// workloads keep concurrency in the HTTP layer and the admission queue and
// out of the runtime.
func childArgs(w *workload, seed int64, outDir string) ([]string, error) {
	tenants := map[string]api.TenantConfig{}
	for i, weight := range w.weights {
		tc := api.TenantConfig{Weight: weight, MaxPending: 512}
		if i == len(w.weights)-1 {
			tc.MemBudget = w.lastBudget
		}
		tenants[fmt.Sprintf("t%d", i)] = tc
	}
	raw, err := json.Marshal(map[string]any{
		"workers": runtime.NumCPU(), "sched": "dfd", "k": w.k, "seed": seed,
		"tenants": tenants, "retain_jobs": 1 << 20, "max_inflight": 1,
	})
	if err != nil {
		return nil, err
	}
	path := filepath.Join(outDir, w.name+".config.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return nil, err
	}
	return []string{"-config", path}, nil
}

// setUp is the serve workloads' set-up: start the child, wait for
// /healthz, and push the warm-up jobs through a closed loop.
func (e *serveEnv) setUp(launch launcher) error {
	sup, err := supervise(launch)
	if err != nil {
		return err
	}
	e.sup = sup
	cur, _ := sup.current()
	e.clients = make([]*client.Client, runtime.NumCPU())
	for i := range e.clients {
		e.clients[i] = client.New(cur.URL())
		e.clients[i].HTTPClient = &http.Client{
			Timeout:   requestTimeout,
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		}
	}
	rng := rand.New(rand.NewSource(e.seed))
	e.kinds = make([]int, 4096)
	for i := range e.kinds {
		e.kinds[i] = drawKind(rng, e.w.mix)
	}
	warm := e.closed(time.Now(), e.w.warmJobs, 0, nil)
	for _, s := range warm {
		if !s.ok {
			e.close()
			return fmt.Errorf("a warm-up job failed")
		}
	}
	return nil
}

func (e *serveEnv) close() {
	e.sup.close()
	for _, c := range e.clients {
		c.HTTPClient.CloseIdleConnections()
	}
}

func (e *serveEnv) request(tenant, kind int) api.JobRequest {
	return api.JobRequest{Tenant: fmt.Sprintf("t%d", tenant), Tree: &e.w.trees[kind]}
}

// checkTree applies the serve output checks to a finished tree job.
func checkTree(st api.JobStatus, tree api.TreeSpec) error {
	switch {
	case st.Status != "done":
		return fmt.Errorf("job %s is %q: %s", st.ID, st.Status, st.Error)
	case st.Stats == nil:
		return fmt.Errorf("job %s has no stats", st.ID)
	case st.Stats.TotalThreads != 1<<(tree.Depth+1)-1:
		return fmt.Errorf("job %s ran %d threads, want %d", st.ID, st.Stats.TotalThreads, 1<<(tree.Depth+1)-1)
	case st.Stats.DummyThreads != 0:
		return fmt.Errorf("job %s ran %d dummy threads, want none", st.ID, st.Stats.DummyThreads)
	case st.Stats.HeapLive != 0:
		return fmt.Errorf("job %s left %d bytes allocated", st.ID, st.Stats.HeapLive)
	}
	return nil
}

// treeSample fills the fields of a sample that come from the job's
// status; ok is false when the request or any output check failed.
func treeSample(s sample, st api.JobStatus, err error, tree api.TreeSpec) sample {
	if err == nil {
		err = checkTree(st, tree)
	}
	if err != nil {
		note("%v", err)
		return s
	}
	s.ok = true
	s.inside = time.Duration(st.LatencyMs * float64(time.Millisecond))
	// The serial space of a uniform tree is one leaf's allocation.
	s.hwOverS1 = float64(st.Stats.HeapHW) / float64(tree.Alloc)
	s.maxLive, s.preempts, s.dummies = st.Stats.MaxLiveThreads, st.Stats.Preemptions, st.Stats.DummyThreads
	return s
}

// closed runs the closed loop, one goroutine per client, each sending its
// next request when the reply to the last has been checked: until n jobs
// have been sent in all when n > 0, else for dur from origin.
func (e *serveEnv) closed(origin time.Time, n int, dur time.Duration, spans *spanStore) []sample {
	var started atomic.Int64
	perClient := make([][]sample, len(e.clients))
	var wg sync.WaitGroup
	for g, cl := range e.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			var prevEnd time.Duration
			for i := g; ; i += len(e.clients) {
				start := time.Since(origin)
				if n > 0 && started.Add(1) > int64(n) || n == 0 && start >= dur {
					break
				}
				kind := e.kinds[i%len(e.kinds)]
				st, err := cl.SubmitWait(ctx, e.request(i%len(e.w.weights), kind))
				replied := time.Since(origin)
				s := treeSample(sample{at: start, latency: replied - start, late: start - prevEnd}, st, err, e.w.trees[kind])
				end := time.Since(origin)
				prevEnd = end
				perClient[g] = append(perClient[g], s)
				if spans != nil {
					id, job := spans.newID(), fmt.Sprintf("c%d-%d", g, i)
					spans.add(span{Name: "client.submit_wait", Job: job, ID: spans.newID(), Parent: id, Start: start, End: replied})
					spans.add(span{Name: "check", Job: job, ID: spans.newID(), Parent: id, Start: replied, End: end})
					spans.add(span{Name: "job", Job: job, ID: id, Parent: -1, Start: start, End: end})
				}
				if err != nil {
					time.Sleep(time.Millisecond) // a dead child must not turn the loop into a spin
				}
			}
		}()
	}
	wg.Wait()
	var all []sample
	for _, s := range perClient {
		all = append(all, s...)
	}
	return all
}

// waitUntil sleeps until shortly before t and yields for the rest. On the
// reference host a sleep of two milliseconds or more wakes 0.25 ms late at
// the median and 0.5 ms at the 99th percentile, and a shorter one a full
// millisecond late, so only long waits sleep and they stop 0.6 ms early.
func waitUntil(t time.Time) {
	const margin, shortest = 600 * time.Microsecond, 2 * time.Millisecond
	for {
		d := time.Until(t)
		switch {
		case d <= 0:
			return
		case d >= margin+shortest:
			time.Sleep(d - margin)
		default:
			runtime.Gosched()
		}
	}
}

// sent is what the open loop knows about one arrival after sending it.
type sent struct {
	at  time.Duration // when the request left, from the start of the period
	id  string
	gen int // the incarnation that accepted it
	err error
}

// open runs the open loop: one sender per client takes the next arrival,
// waits until it is due, and posts it without waiting for the job. When
// the plan is exhausted the queue is left to drain and every job is read
// back and checked.
func (e *serveEnv) open(origin time.Time, plan []arrival, spans *spanStore) []sample {
	ctx := context.Background()
	out := make([]sent, len(plan))
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, cl := range e.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(plan) {
					return
				}
				a := plan[i]
				waitUntil(origin.Add(a.due))
				_, gen := e.sup.current()
				at := time.Since(origin)
				st, err := cl.Submit(ctx, e.request(a.tenant, a.kind))
				out[i] = sent{at: at, id: st.ID, gen: gen, err: err}
				if spans != nil {
					spans.add(span{Name: "client.submit", Job: jobName(gen, st.ID), ID: spans.newID(), Parent: -1, Start: at, End: time.Since(origin)})
				}
			}
		}()
	}
	wg.Wait()
	e.drain(ctx)

	// Only the incarnation now running still knows its jobs; what an
	// earlier one accepted died with it.
	_, gen := e.sup.current()
	samples := make([]sample, len(plan))
	next.Store(0)
	for _, cl := range e.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(plan) {
					return
				}
				a, s := plan[i], out[i]
				var st api.JobStatus
				err := s.err
				t0 := time.Since(origin)
				switch {
				case err != nil:
				case s.gen != gen:
					err = fmt.Errorf("job %s was lost when the system under test died", s.id)
				default:
					st, err = cl.Job(ctx, s.id)
				}
				samples[i] = openSample(a.due, s.at, st, err, e.w.trees[a.kind])
				if spans != nil && err == nil {
					job, id := jobName(s.gen, s.id), spans.newID()
					spans.add(span{Name: "generator.late", Job: job, ID: spans.newID(), Parent: id, Start: a.due, End: s.at})
					spans.add(span{Name: "server.accept_to_finish", Job: job, ID: spans.newID(), Parent: id, Start: s.at, End: s.at + samples[i].inside})
					spans.add(span{Name: "job", Job: job, ID: id, Parent: -1, Start: a.due, End: a.due + samples[i].latency})
					spans.add(span{Name: "client.get+check", Job: job, ID: spans.newID(), Parent: id, Start: t0, End: time.Since(origin)})
				}
			}
		}()
	}
	wg.Wait()
	return samples
}

func jobName(gen int, id string) string { return fmt.Sprintf("g%d-%s", gen, id) }

// openSample is the open loop's view of one job: its latency runs from
// the instant it was due, not from the instant it was sent, so the wait a
// stall imposes on later requests counts.
func openSample(due, sentAt time.Duration, st api.JobStatus, err error, tree api.TreeSpec) sample {
	s := treeSample(sample{at: due, late: sentAt - due}, st, err, tree)
	s.latency = s.late + s.inside
	return s
}

// drain waits until the child reports no pending and no running job.
func (e *serveEnv) drain(ctx context.Context) {
	ctx, cancel := context.WithTimeout(ctx, 2*requestTimeout)
	defer cancel()
	for ctx.Err() == nil {
		if text, err := e.clients[0].Metrics(ctx); err == nil {
			v := promValues(text)
			if v["dfdserve_pending_jobs"] == 0 && v["dfdserve_inflight_jobs"] == 0 {
				return
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	note("the admission queue did not drain: unfinished jobs will count as failed")
}

// promValues sums a Prometheus text exposition by metric name, over all
// label sets.
func promValues(text string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		name, _, _ := strings.Cut(line[:i], "{")
		out[name] += v
	}
	return out
}

// measure runs the workload's loop for dur.
func (e *serveEnv) measure(dur time.Duration, spans *spanStore) period {
	var before, after runtime.MemStats
	crashes := e.sup.crashCount()
	cur, _ := e.sup.current()
	cpu0 := childCPU(cur)
	runtime.ReadMemStats(&before)
	origin := time.Now()
	p := period{dur: dur}
	if e.w.loop == closedLoop {
		p.samples = e.closed(origin, 0, dur, spans)
	} else {
		// Each period of a run gets a plan of its own, so that the untraced
		// and the traced part of a traced run do not replay the same one.
		plan := openSchedule(e.seed+e.periods<<32, dur, e.w.rate, len(e.w.weights), e.w.mix, e.w.burstEvery, e.w.burstSize)
		e.periods++
		p.samples = e.open(origin, plan, spans)
	}
	runtime.ReadMemStats(&after)
	p.mallocs = after.Mallocs - before.Mallocs
	// After a crash the new child's clock starts at zero; the CPU of the
	// dead one is lost, and the run is reported as crashed anyway.
	if now, _ := e.sup.current(); now == cur {
		p.cpuSec = childCPU(cur) - cpu0
	} else {
		p.cpuSec = childCPU(now)
	}
	p.crashes = e.sup.crashCount() - crashes
	return p
}

func childCPU(t target) float64 {
	if t.PID() == 0 {
		return 0
	}
	sec, err := sut.CPUSeconds(t.PID())
	if err != nil {
		note("cpu time of the child: %v", err)
	}
	return sec
}

// counters are the child's cumulative scheduler and admission counters,
// scraped from /metrics and /v1/tenants.
func (e *serveEnv) counters() map[string]float64 {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	out := map[string]float64{}
	if text, err := e.clients[0].Metrics(ctx); err == nil {
		v := promValues(text)
		out["steals"] = v["dfd_steals_total"]
		out["failed_steals"] = v["dfd_steal_attempts_total"] - v["dfd_steals_total"]
		out["promotions"] = v["dfd_promotions_total"]
		out["max_deques"] = v["dfd_deque_high_water"]
	} else {
		note("scrape /metrics: %v", err)
	}
	if rows, err := e.clients[0].Tenants(ctx); err == nil {
		for _, t := range rows {
			out["rejected_queue"] += float64(t.RejectedQueue)
			out["rejected_budget"] += float64(t.RejectedBudget)
			out["rejected_cost"] += float64(t.RejectedCost)
			out["budget_kills"] += float64(t.BudgetKills)
		}
	} else {
		note("scrape /v1/tenants: %v", err)
	}
	return out
}

func (e *serveEnv) peakRSSMB() float64 {
	cur, _ := e.sup.current()
	return sut.PeakRSSMB(cur.PID())
}

// notesLeft is how many more remarks note will print; a window in which
// every request fails must not bury the result under its complaints.
var notesLeft atomic.Int64

func init() { notesLeft.Store(20) }

// note prints a remark about the run on standard output, as a comment.
func note(format string, args ...any) {
	if notesLeft.Add(-1) >= 0 {
		fmt.Fprintf(os.Stdout, "# "+format+"\n", args...)
	}
}
