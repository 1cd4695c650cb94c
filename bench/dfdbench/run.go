package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// options are the settings of one run of one workload.
type options struct {
	w       *workload
	seed    int64
	seconds int
	binDir  string // where run.sh put dfdserve and the probes
	outDir  string // where logs, configs and trace files go
	setups  int    // set-ups per untraced run; the median is setup_s

	probes    bool // a traced run also runs the probe pass
	probeMin  time.Duration
	probeReps int
	recorded  int // recorded single-job runs behind the rtrace rows of a traced lib run

	lib      *libEnv  // the lib workload's job variants and references, built once
	childLog *os.File // the child's output, opened once
}

// result is what one run reports.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   int               `json:"seconds"`
	Trace     bool              `json:"trace"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Crashes   int               `json:"sut_crashes"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is a workload set up and warm: a dfdserve child with its clients,
// or a runtime inside this process.
type env interface {
	measure(dur time.Duration, spans *spanStore) period
	counters() map[string]float64 // cumulative; a traced run reports the difference
	peakRSSMB() float64
	close()
}

// setUp performs the workload's set-up once. contention and recorder
// configure the lib workloads' runtime and mean nothing to the child.
func (o *options) setUp(contention, recorder bool) (env, error) {
	if o.w.loop == libLoop {
		if err := o.lib.setUp(o.seed, contention, recorder); err != nil {
			return nil, err
		}
		return o.lib, nil
	}
	launch, err := childLauncher(o.w, o.seed, filepath.Join(o.binDir, "dfdserve"), o.outDir, o.childLog)
	if err != nil {
		return nil, err
	}
	e := &serveEnv{w: o.w, seed: o.seed}
	if err := e.setUp(launch); err != nil {
		return nil, err
	}
	return e, nil
}

// prepare does the harness's own work that must not count as set-up.
func (o *options) prepare() error {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	if o.w.loop == libLoop {
		o.lib = libReference(o.w, o.seed)
		return nil
	}
	log, err := os.OpenFile(filepath.Join(o.outDir, "dfdserve-"+o.w.name+".log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	o.childLog = log
	return err
}

func (o *options) duration() time.Duration { return time.Duration(o.seconds) * time.Second }

// untraced sets the workload up o.setups times, keeps the last, and
// measures the end-to-end metrics with all tracing off.
func (o *options) untraced() (result, error) {
	var e env
	setups := make([]float64, 0, o.setups)
	for len(setups) < o.setups {
		if e != nil {
			e.close()
		}
		t0 := time.Now()
		var err error
		if e, err = o.setUp(false, o.w.recorder); err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer e.close()
	p := e.measure(o.duration(), nil)
	o.checkGenerator(p)
	return o.result(false, p, p.endToEnd(o.w.sloMs, setups)), nil
}

func (o *options) result(trace bool, p period, m map[string]metric) result {
	return result{
		Workload: o.w.name, Seed: o.seed, Seconds: o.seconds, Trace: trace,
		Attempted: len(p.samples), Failed: p.failed(), Crashes: p.crashes, Metrics: m,
	}
}

// checkGenerator says so when the open loop's generator ran too late for
// its latencies to mean much: a median lateness above half the median
// latency.
func (o *options) checkGenerator(p period) {
	if o.w.loop != openLoop {
		return
	}
	late := percentile(sortedMs(p.samples, func(s sample) time.Duration { return s.late }), 0.5)
	lat := percentile(sortedMs(p.samples, latencyOf), 0.5)
	if late > lat/2 {
		fmt.Printf("# INVALID: the generator ran %.4f ms late at the median, more than half the median latency %.4f ms\n", late, lat)
	}
}

// traced measures the per-layer metrics: a short untraced stretch for
// reference, the traced stretch with spans and counter scrapes (and the
// runtime's contention clocks for a lib workload), the recorded runs
// behind the rtrace rows, and the probe pass.
func (o *options) traced() (result, error) {
	lib := o.w.loop == libLoop
	e, err := o.setUp(false, o.w.recorder)
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	short := o.duration() / 3
	plain := e.measure(short, nil)
	if lib {
		e.close()
		if e, err = o.setUp(true, o.w.recorder); err != nil {
			return result{}, fmt.Errorf("set-up with contention clocks: %w", err)
		}
	}
	spans := &spanStore{}
	before, load0 := e.counters(), selfCPU()
	p := e.measure(o.duration(), spans)
	load := selfCPU() - load0
	after, rss := e.counters(), e.peakRSSMB()
	e.close()
	o.checkGenerator(p)

	m := tracedMetrics(p, plain, before, after, rss)
	if lib {
		if err := o.recorderRows(m, plain); err != nil {
			return result{}, err
		}
	} else {
		m["bench.loadgen_cpu_share"] = metric{load / (p.dur.Seconds() * float64(runtime.NumCPU())), "share", 1}
	}
	if o.probes {
		for name, v := range o.probeRows() {
			m[name] = v
		}
	}
	spans.summary()
	path := filepath.Join(o.outDir, "trace-"+o.w.name+".json")
	if err := spans.write(path, o.w.name, o.seed); err != nil {
		return result{}, err
	}
	fmt.Printf("# %d spans in %s (%d dropped)\n", len(spans.spans), path, spans.dropped)
	return o.result(true, p, m), nil
}

// tracedMetrics are the per-layer rows that come from the traced stretch
// p itself; plain is the untraced stretch before it, and before and after
// the counter scrapes around it.
func tracedMetrics(p, plain period, before, after map[string]float64, rss float64) map[string]metric {
	m := map[string]metric{}
	for _, d := range perLayerDefs {
		m[d.name] = metric{notApplicable, d.unit, 0}
	}
	set := func(name string, v float64, n int) {
		m[name] = metric{v, m[name].Unit, n}
	}
	var jobs, preempts, dummies float64
	var maxLive int64
	for _, s := range p.samples {
		if !s.ok {
			continue
		}
		jobs++
		preempts += float64(s.preempts)
		dummies += float64(s.dummies)
		maxLive = max(maxLive, s.maxLive)
	}
	n := int(jobs)
	// delta is how far a counter moved across the traced stretch; ok is
	// false when this kind of workload does not expose it.
	delta := func(key string) (float64, bool) {
		b, ok1 := before[key]
		a, ok2 := after[key]
		return a - b, ok1 && ok2
	}
	perJob := func(name, key string) {
		if d, ok := delta(key); ok && jobs > 0 {
			set(name, d/jobs, n)
		}
	}
	count := func(name, key string) {
		if d, ok := delta(key); ok {
			set(name, d, 1)
		}
	}
	if jobs > 0 {
		set("grt.preemptions_per_job", preempts/jobs, n)
		set("grt.dummy_threads_per_job", dummies/jobs, n)
		set("grt.max_live_threads", float64(maxLive), n)
	}
	perJob("grt.steals_per_job", "steals")
	perJob("grt.promotions_per_job", "promotions")
	perJob("grt.sched_lock_ops_per_job", "lock_ops")
	steals, ok1 := delta("steals")
	failed, ok2 := delta("failed_steals")
	if ok1 && ok2 && steals+failed > 0 {
		set("grt.failed_steal_share", failed/(steals+failed), int(steals+failed))
	}
	if v, ok := after["max_deques"]; ok {
		set("grt.max_deques", v, 1)
	}
	workers := float64(runtime.NumCPU())
	if d, ok := delta("lock_ns"); ok {
		set("grt.sched_lock_wait_share", d/float64(p.dur.Nanoseconds()), 1)
	}
	if d, ok := delta("steal_wait_ns"); ok {
		set("grt.steal_wait_share", d/(float64(p.dur.Nanoseconds())*workers), 1)
	}
	count("serve.rejected_queue_full", "rejected_queue")
	count("serve.rejected_over_budget", "rejected_budget")
	count("serve.rejected_cost_shed", "rejected_cost")
	count("serve.budget_kills", "budget_kills")

	inside := sortedMs(p.samples, func(s sample) time.Duration { return s.inside })
	set("serve.accept_to_finish_p50_ms", percentile(inside, 0.5), n)
	set("serve.accept_to_finish_p99_ms", percentile(inside, 0.99), n)
	set("serve.open_latency_p99_ms", percentile(sortedMs(p.samples, latencyOf), 0.99), n)
	late := sortedMs(p.samples, func(s sample) time.Duration { return s.late })
	set("bench.generator_late_p50_ms", percentile(late, 0.5), n)
	set("bench.generator_late_p99_ms", percentile(late, 0.99), n)

	set("proc.peak_rss_mb", rss, 1)
	set("proc.sut_crashes", float64(p.crashes), 1)
	if base := jobsPerSec(plain.samples, plain.dur); base > 0 {
		set("bench.trace_overhead_share", 1-jobsPerSec(p.samples, p.dur)/base, windows)
	}
	return m
}

// recorderRows fills the rows of a traced lib run that need a trace
// recorder: o.recorded single-job runs through SummarizeTrace and
// VerifyTrace, and for the workload that runs under a recorder a stretch
// without one to compare plain with.
func (o *options) recorderRows(m map[string]metric, plain period) error {
	rec, err := o.lib.recorded(o.seed, o.recorded)
	if err != nil {
		return err
	}
	n := int(rec.jobs)
	m["grt.promotions_per_job"] = metric{rec.promotions / rec.jobs, "count", n}
	m["rtrace.events_per_thread"] = metric{rec.events / rec.threads, "count", n}
	m["rtrace.dropped_share"] = metric{rec.dropped / (rec.events + rec.dropped), "share", n}
	m["rtrace.verify_fail_share"] = metric{rec.verifyFailed / rec.jobs, "share", n}
	if !o.w.recorder {
		return nil
	}
	e, err := o.setUp(false, false)
	if err != nil {
		return fmt.Errorf("set-up without the recorder: %w", err)
	}
	off := e.measure(plain.dur, nil)
	e.close()
	if base := jobsPerSec(off.samples, off.dur); base > 0 {
		m["rtrace.recorder_overhead_share"] = metric{1 - jobsPerSec(plain.samples, plain.dur)/base, "share", windows}
	}
	return nil
}

// probeRows runs the probe pass and returns its rows; a probe that was
// not built, fails or omits a row leaves that row unavailable.
func (o *options) probeRows() map[string]metric {
	rows := map[string]metric{}
	for _, layer := range probeLayers() {
		bin := filepath.Join(o.binDir, "probe-"+layer)
		if _, err := os.Stat(bin); err != nil {
			fmt.Printf("# probe %s: unavailable: it did not build against this commit\n", layer)
			continue
		}
		args := []string{"-min", o.probeMin.String(), "-reps", fmt.Sprint(o.probeReps)}
		if layer == "serve" {
			args = append(args, "-dfdserve", filepath.Join(o.binDir, "dfdserve"))
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		cmd := exec.CommandContext(ctx, bin, args...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		cancel()
		if err != nil {
			fmt.Printf("# probe %s: unavailable: %v: %s\n", layer, err, strings.TrimSpace(stderr.String()))
			continue
		}
		sc := bufio.NewScanner(bytes.NewReader(out))
		for sc.Scan() {
			var row struct {
				Name string `json:"name"`
				metric
			}
			if err := json.Unmarshal(sc.Bytes(), &row); err == nil && row.Name != "" {
				rows[row.Name] = row.metric
			}
		}
	}
	return rows
}

// print writes every metric of r by name, in the order of defs, with its
// unit, sample count, workload and seed. Probe rows belong to no workload.
func (r result) print(defs []def) {
	for _, d := range defs {
		v, ok := r.Metrics[d.name]
		where := "workload=" + r.Workload
		if d.source != "" {
			where = "probe=" + d.source
		}
		switch {
		case !ok || v.Value == notApplicable && d.source != "":
			fmt.Printf("metric %-32s %14s %-6s %s\n", d.name, "unavailable", d.unit, where)
		case v.Value == notApplicable:
			fmt.Printf("metric %-32s %14s %-6s %s\n", d.name, "n/a", d.unit, where)
		default:
			if d.source == "" {
				where += fmt.Sprint(" seed=", r.Seed)
			}
			fmt.Printf("metric %-32s %14.6g %-6s n=%-7d %s\n", d.name, v.Value, d.unit, v.N, where)
		}
	}
}

// contractLine is the one-object summary the benchmark contract wants as
// the last line of standard output.
func (r result) contractLine(defs []def) string {
	type reading struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]reading{}
	for _, d := range defs {
		v, ok := r.Metrics[d.name]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			v.Value = notApplicable
		}
		metrics[d.name] = reading{v.Value, d.unit}
	}
	raw, err := json.Marshal(map[string]any{
		"correct": r.Failed == 0 && r.Attempted > 0, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics,
	})
	if err != nil {
		panic(err) // finite numbers, strings and a bool always marshal
	}
	return string(raw)
}
