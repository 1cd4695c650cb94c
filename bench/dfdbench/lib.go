package main

import (
	"context"
	"fmt"
	"runtime"
	"syscall"
	"time"

	"dfdeques"
)

// libJob is one fork-join computation the lib workloads submit. body
// returns the root thread of a job that writes one word per slot of out,
// derived from seed; the sum of the slots is the job's checksum.
type libJob struct {
	slots   int
	body    func(out []uint64, seed uint64, k int64) func(*dfdeques.Thread)
	serial  func(seed uint64) uint64 // the checksum, computed without the runtime
	threads int64                    // TotalThreads - DummyThreads of every run
}

// mix is one round of a 64-bit mixer (xorshift-multiply).
func mix(x uint64) uint64 {
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	return x * 0x2545F4914F6CDD1D
}

const (
	treeDepth = 12
	// leafRounds mixer rounds are about half a microsecond on the
	// reference host.
	leafRounds = 160
	nodeBytes  = 64

	chainLinks = 2048
	linkBytes  = 96
	// Every bigEvery-th link allocates bigFactor times K, which forks a
	// tree of bigFactor dummy leaves under bigFactor-1 ordinary threads.
	bigEvery  = 32
	bigFactor = 8
)

func treeLeaf(seed uint64, idx int) uint64 {
	x := seed + uint64(idx)*0x9E3779B97F4A7C15
	for i := 0; i < leafRounds; i++ {
		x = mix(x)
	}
	return x
}

// treeJob is a binary fork tree of depth treeDepth: an inner node
// allocates, forks one half, descends into the other itself, joins and
// frees; a leaf mixes integers into its slot.
var treeJob = &libJob{
	slots: 1 << treeDepth,
	body: func(out []uint64, seed uint64, k int64) func(*dfdeques.Thread) {
		var node func(t *dfdeques.Thread, depth, idx int)
		node = func(t *dfdeques.Thread, depth, idx int) {
			if depth == 0 {
				out[idx] = treeLeaf(seed, idx)
				return
			}
			t.Alloc(nodeBytes)
			h := t.Fork(func(c *dfdeques.Thread) { node(c, depth-1, 2*idx) })
			node(t, depth-1, 2*idx+1)
			t.Join(h)
			t.Free(nodeBytes)
		}
		return func(t *dfdeques.Thread) { node(t, treeDepth, 0) }
	},
	serial: func(seed uint64) uint64 {
		var sum uint64
		for idx := 0; idx < 1<<treeDepth; idx++ {
			sum += treeLeaf(seed, idx)
		}
		return sum
	},
	threads: 1 << treeDepth, // the root and one fork per inner node
}

// chainJob is a chain of fork, allocate, join, free: the body of
// BenchmarkGrtContention, except that the parent holds its allocation
// across the join. With K below two allocations the child's then finds
// the quota spent, so every link is preempted, its deque given up and
// stolen back; every bigEvery-th link also allocates above K.
var chainJob = &libJob{
	slots: chainLinks,
	body: func(out []uint64, seed uint64, k int64) func(*dfdeques.Thread) {
		return func(r *dfdeques.Thread) {
			for i := 0; i < chainLinks; i++ {
				h := r.Fork(func(c *dfdeques.Thread) {
					c.Alloc(linkBytes)
					out[i] = mix(seed + uint64(i))
					c.Free(linkBytes)
				})
				r.Alloc(linkBytes)
				if i%bigEvery == bigEvery-1 {
					r.Alloc(bigFactor * k)
					r.Free(bigFactor * k)
				}
				r.Join(h)
				r.Free(linkBytes)
			}
		}
	},
	serial: func(seed uint64) uint64 {
		var sum uint64
		for i := 0; i < chainLinks; i++ {
			sum += mix(seed + uint64(i))
		}
		return sum
	},
	threads: 1 + chainLinks + chainLinks/bigEvery*(bigFactor-1),
}

// libVariants is how many distinct jobs (seeds) a lib run draws from; the
// serial checksums are computed once per variant, before set-up, so that
// checking a job costs the process under test one pass over its slots.
const libVariants = 8

// libEnv is a warm runtime and what is needed to check its jobs.
type libEnv struct {
	w     *workload
	rt    *dfdeques.Runtime
	s1    int64 // the job's heap high-water on one worker
	seeds [libVariants]uint64
	want  [libVariants]uint64
	draws []int
	next  int // position in draws
	out   []uint64
}

// libReference derives the run's job variants from seed and computes
// their serial checksums. It is the harness's own work, not set-up.
func libReference(w *workload, seed int64) *libEnv {
	e := &libEnv{w: w, draws: variantDraws(seed, 4096, libVariants), out: make([]uint64, w.job.slots)}
	x := uint64(seed)*0x9E3779B97F4A7C15 + 1
	for v := range e.seeds {
		x = mix(x)
		e.seeds[v] = x
		e.want[v] = w.job.serial(x)
	}
	return e
}

func (w *workload) runtimeConfig(seed int64, workers int) dfdeques.RuntimeConfig {
	return dfdeques.RuntimeConfig{Workers: workers, Sched: dfdeques.SchedDFDeques, K: w.k, Seed: seed}
}

// setUp is the lib workloads' set-up: start the runtime, measure the
// job's serial space S1 on a one-worker runtime, and run the warm-up
// jobs. contention turns the runtime's wall-clock contention counters on
// (traced runs only); recorder makes a trace recorder the runtime's probe.
func (e *libEnv) setUp(seed int64, contention, recorder bool) error {
	one, err := dfdeques.NewRuntime(e.w.runtimeConfig(seed, 1))
	if err != nil {
		return err
	}
	e.rt = one
	s, err := e.runJob(0)
	if cerr := one.Shutdown(context.Background()); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("measuring S1: %w", err)
	}
	e.s1 = s.HeapHW

	cfg := e.w.runtimeConfig(seed, runtime.NumCPU())
	cfg.MeasureContention = contention
	if recorder {
		// Rings wrap during a long run; the per-event cost is the same.
		cfg.Probe = dfdeques.NewTraceRecorder(cfg.Workers, 1<<14)
	}
	if e.rt, err = dfdeques.NewRuntime(cfg); err != nil {
		return err
	}
	for i := 0; i < e.w.warmJobs; i++ {
		if _, err := e.runJob(e.draw()); err != nil {
			e.close()
			return fmt.Errorf("warm-up job %d: %w", i, err)
		}
	}
	return nil
}

func (e *libEnv) draw() int {
	v := e.draws[e.next%len(e.draws)]
	e.next++
	return v
}

// submit starts variant v on the runtime.
func (e *libEnv) submit(v int) (*dfdeques.Job, error) {
	clear(e.out)
	return e.rt.Submit(context.Background(), e.w.job.body(e.out, e.seeds[v], e.w.k))
}

// runJob submits variant v, waits for it, and checks its outputs.
func (e *libEnv) runJob(v int) (dfdeques.JobStats, error) {
	j, err := e.submit(v)
	if err != nil {
		return dfdeques.JobStats{}, err
	}
	return e.check(v, j)
}

// check waits for j and applies the lib output checks: the checksum
// equals the serial reference, the thread count equals the closed form,
// and every allocation was freed.
func (e *libEnv) check(v int, j *dfdeques.Job) (dfdeques.JobStats, error) {
	s, err := j.Wait()
	if err != nil {
		return s, err
	}
	var sum uint64
	for _, x := range e.out {
		sum += x
	}
	switch {
	case sum != e.want[v]:
		err = fmt.Errorf("checksum %#x, serial reference %#x", sum, e.want[v])
	case s.TotalThreads-s.DummyThreads != e.w.job.threads:
		err = fmt.Errorf("%d threads and %d dummies, want %d ordinary threads", s.TotalThreads, s.DummyThreads, e.w.job.threads)
	case s.HeapLive != 0:
		err = fmt.Errorf("%d bytes still allocated at the end", s.HeapLive)
	}
	return s, err
}

// measure submits jobs back to back for dur.
func (e *libEnv) measure(dur time.Duration, spans *spanStore) period {
	var before, after runtime.MemStats
	samples := make([]sample, 0, 1<<14)
	runtime.ReadMemStats(&before)
	cpu0 := selfCPU()
	origin := time.Now()
	var prevEnd time.Duration
	for n := 0; ; n++ {
		start := time.Since(origin)
		if start >= dur {
			break
		}
		v := e.draw()
		j, err := e.submit(v)
		accepted := time.Since(origin)
		var st dfdeques.JobStats
		if err == nil {
			st, err = e.check(v, j)
		}
		end := time.Since(origin)
		if err != nil {
			note("job %d failed: %v", n, err)
		}
		samples = append(samples, sample{
			at: start, latency: end - start, inside: end - accepted, late: start - prevEnd,
			ok: err == nil, hwOverS1: float64(st.HeapHW) / float64(e.s1),
			maxLive: st.MaxLiveThreads, preempts: st.Preemptions, dummies: st.DummyThreads,
		})
		prevEnd = end
		if spans != nil {
			id := spans.newID()
			job := fmt.Sprintf("lib-%d", n)
			spans.add(span{Name: "grt.submit", Job: job, ID: spans.newID(), Parent: id, Start: start, End: accepted})
			spans.add(span{Name: "grt.wait+check", Job: job, ID: spans.newID(), Parent: id, Start: accepted, End: end})
			spans.add(span{Name: "job", Job: job, ID: id, Parent: -1, Start: start, End: end})
		}
	}
	p := period{samples: samples, dur: dur, cpuSec: selfCPU() - cpu0}
	runtime.ReadMemStats(&after)
	p.mallocs = after.Mallocs - before.Mallocs
	return p
}

// counters are the runtime's cumulative scheduler counters.
func (e *libEnv) counters() map[string]float64 {
	s := e.rt.Stats(dfdeques.JobStats{})
	return map[string]float64{
		"steals": float64(s.Steals), "failed_steals": float64(s.FailedSteals),
		"max_deques": float64(s.MaxDeques), "lock_ops": float64(s.SchedLockOps),
		"lock_ns": float64(s.SchedLockNs), "steal_wait_ns": float64(s.StealWaitNs),
	}
}

func (e *libEnv) peakRSSMB() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func (e *libEnv) close() {
	if e.rt != nil {
		_ = e.rt.Shutdown(context.Background()) // Background never expires, so Shutdown cannot fail
		e.rt = nil
	}
}

// selfCPU is the user+system CPU time this process has used, in seconds.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// recording is what n recorded single-job runs add up to.
type recording struct {
	jobs, events, threads, promotions, dropped, verifyFailed float64
}

// recorded runs n single jobs, each on a fresh runtime with a fresh trace
// recorder, and passes every stream through SummarizeTrace and
// VerifyTrace: the rtrace rows of a traced run.
func (e *libEnv) recorded(seed int64, n int) (recording, error) {
	r := recording{jobs: float64(n)}
	for i := 0; i < n; i++ {
		cfg := e.w.runtimeConfig(seed+int64(i), runtime.NumCPU())
		rec := dfdeques.NewTraceRecorder(cfg.Workers, 1<<17)
		cfg.Probe = rec
		rt, err := dfdeques.NewRuntime(cfg)
		if err != nil {
			return r, err
		}
		e.rt = rt
		_, err = e.runJob(e.draw())
		e.close()
		if err != nil {
			return r, fmt.Errorf("recorded job %d: %w", i, err)
		}
		sum := dfdeques.SummarizeTrace(rec)
		r.events += float64(sum.Events)
		r.threads += float64(sum.Threads)
		r.promotions += float64(sum.Promotions)
		r.dropped += float64(rec.Dropped())
		if _, verr := dfdeques.VerifyTrace(rec); verr != nil {
			note("replay verification of recorded job %d failed: %v", i, verr)
			r.verifyFailed++
		}
	}
	return r, nil
}
