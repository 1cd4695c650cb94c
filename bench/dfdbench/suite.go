package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

// suite runs the whole benchmark.
type suite struct {
	o     options
	host  host
	quick bool
}

// report is the whole benchmark's result: bench/out/result.json, and a
// baseline when recorded.
type report struct {
	Host   host              `json:"host"`
	Quick  bool              `json:"quick,omitempty"`
	Runs   []result          `json:"runs"`
	Probes map[string]metric `json:"probes"`
}

func (s *suite) main(selfcheck, baseline bool) error {
	// One probe pass per whole benchmark leaves time for five repetitions
	// a row; a single traced run, which the driver of the benchmark
	// contract times, makes do with the flag's default of three.
	s.o.probeReps = 5
	if s.quick {
		s.o.seconds, s.o.setups, s.o.recorded = 2, 2, 3
		s.o.probeMin, s.o.probeReps = 20*time.Millisecond, 1
	}
	if err := os.MkdirAll(s.o.outDir, 0o755); err != nil {
		return err
	}
	first, err := s.once()
	if err != nil {
		return err
	}
	if err := writeJSON(filepath.Join(s.o.outDir, "result.json"), first); err != nil {
		return err
	}
	if baseline {
		if s.quick {
			return errors.New("a quick run is no baseline")
		}
		path := filepath.Join("bench", "baseline", s.host.Commit+".json")
		if err := writeJSON(path, first); err != nil {
			return err
		}
		fmt.Println("# baseline written to", path)
	}
	if !selfcheck {
		return nil
	}
	return s.selfcheck(first)
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// once runs every workload untraced and traced, each run in a process of
// its own so that a crash costs one run, then the probe pass.
func (s *suite) once() (report, error) {
	rep := report{Host: s.host, Quick: s.quick}
	var failed []string
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			r, err := s.child(w, trace, s.o.seed)
			if err != nil {
				fmt.Printf("# %s trace=%t: no result: %v\n", w.name, trace, err)
				failed = append(failed, fmt.Sprintf("%s trace=%t", w.name, trace))
				continue
			}
			rep.Runs = append(rep.Runs, r)
		}
	}
	fmt.Println("# probe pass")
	rep.Probes = s.o.probeRows()
	probes := result{Metrics: rep.Probes}
	var probeDefs []def
	for _, d := range perLayerDefs {
		if d.source != "" {
			probeDefs = append(probeDefs, d)
		}
	}
	probes.print(probeDefs)
	rep.summary()
	if len(failed) > 0 {
		return rep, fmt.Errorf("runs without a result: %v", failed)
	}
	return rep, nil
}

// child runs one workload in a new process of this program.
func (s *suite) child(w *workload, trace bool, seed int64) (result, error) {
	t := 0
	if trace {
		t = 1
	}
	path := filepath.Join(s.o.outDir, fmt.Sprintf("run-%s-%d.json", w.name, t))
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0],
		"-workload", w.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(s.o.seconds), "-trace", fmt.Sprint(t),
		"-bin", s.o.binDir, "-out", s.o.outDir, "-commit", s.host.Commit, "-setups", fmt.Sprint(s.o.setups),
		"-probes=false", "-recorded", fmt.Sprint(s.o.recorded), "-result", path)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return result{}, err
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return result{}, err
	}
	var r result
	return r, json.Unmarshal(raw, &r)
}

// summary prints the end-to-end metrics of every workload side by side.
func (rep report) summary() {
	fmt.Printf("# %-20s", "end to end")
	for _, d := range endToEndDefs {
		fmt.Printf(" %18s", d.name)
	}
	fmt.Println()
	for _, r := range rep.Runs {
		if r.Trace {
			continue
		}
		fmt.Printf("# %-20s", r.Workload)
		for _, d := range endToEndDefs {
			fmt.Printf(" %18.6g", r.Metrics[d.name].Value)
		}
		fmt.Printf("  failed=%d/%d crashes=%d\n", r.Failed, r.Attempted, r.Crashes)
	}
}

// bounds reads, from the BENCHMARK.json of the checkout, the share by
// which each end-to-end metric may differ between two runs of one commit.
func bounds() (map[string]float64, error) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	out := map[string]float64{}
	for _, m := range doc.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out, nil
}

// selfcheckRuns is how many untraced runs of a workload each side of the
// A/A check takes the median of. One run against one run is too weak an
// instrument on the reference host, where two 15 s runs of one workload
// can differ by a quarter.
const selfcheckRuns = 3

// selfcheck is the A/A check: the same commit measured twice must agree
// with itself, metric by metric and workload by workload, within the
// metric's bound, without a failed job or a crash. Each workload gets
// 2·selfcheckRuns untraced runs on consecutive seeds (the whole benchmark
// just run supplies the first); the sides take alternate runs, so that a
// drift of the host lands on both, and compare their medians.
func (s *suite) selfcheck(first report) error {
	bound, err := bounds()
	if err != nil {
		return err
	}
	bad := 0
	var rows []string
	for _, w := range workloads {
		var sides [2][]result
		for i := 0; i < 2*selfcheckRuns; i++ {
			var r result
			if i == 0 {
				for _, fr := range first.Runs {
					if fr.Workload == w.name && !fr.Trace {
						r = fr
					}
				}
			} else if r, err = s.child(w, false, s.o.seed+int64(i)); err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			sides[i%2] = append(sides[i%2], r)
		}
		trouble := 0
		for _, side := range sides {
			for _, r := range side {
				trouble += r.Failed + r.Crashes
			}
		}
		if trouble > 0 {
			rows = append(rows, fmt.Sprintf("%-20s %d failed jobs and crashes: want none", w.name, trouble))
			bad++
		}
		for _, d := range endToEndDefs {
			var m [2]float64
			for i, side := range sides {
				var v []float64
				for _, r := range side {
					v = append(v, r.Metrics[d.name].Value)
				}
				m[i] = median(v)
			}
			differ := math.Abs(m[1]-m[0]) / math.Abs(m[0])
			verdict := "ok"
			if !(differ <= bound[d.name]) { // a NaN from a missing value fails too
				verdict = "OUT OF BOUND"
				bad++
			}
			rows = append(rows, fmt.Sprintf("%-20s %-20s %14.6g %14.6g %8.2f%% %6.1f%% %s", w.name, d.name, m[0], m[1], 100*differ, 100*bound[d.name], verdict))
		}
	}
	fmt.Printf("# selfcheck %-20s %-20s %14s %14s %9s %7s   (medians of %d runs)\n", "workload", "metric", "first", "second", "differ", "bound", selfcheckRuns)
	for _, row := range rows {
		fmt.Println("# selfcheck", row)
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d rows out of bound", bad)
	}
	fmt.Println("# selfcheck passed")
	return nil
}
