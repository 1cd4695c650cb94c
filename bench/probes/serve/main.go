// Command serve times single requests against a live dfdserve child over
// one keep-alive connection, through the typed client: the cost of the
// HTTP path with next to no scheduling behind it.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"time"

	"dfdeques/bench/probes/timing"
	"dfdeques/bench/sut"
	"dfdeques/internal/serve/api"
	"dfdeques/internal/serve/client"
)

func main() {
	bin := flag.String("dfdserve", "", "path of the dfdserve binary under test")
	timing.Parse()
	if err := run(*bin); err != nil {
		fmt.Fprintln(os.Stderr, "probe serve:", err)
		os.Exit(1)
	}
}

func run(bin string) error {
	addr, err := sut.FreeAddr()
	if err != nil {
		return err
	}
	// A queue bound no row can reach: a refusal here would be a probe bug.
	child, err := sut.Start(bin, addr, os.Stderr,
		"-workers", strconv.Itoa(timing.Procs), "-k", "4096", "-seed", "1", "-tenants", "t0:1:0:4096")
	if err != nil {
		return err
	}
	defer child.Stop()
	ctx := context.Background()
	if err := child.WaitHealthy(ctx); err != nil {
		return err
	}

	cl := client.New(child.URL())
	cl.HTTPClient = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	leaf := api.JobRequest{Tenant: "t0", Tree: &api.TreeSpec{Depth: 0}}

	// p50 times call for the row's budget and reports the median.
	p50 := func(name string, call func() error) error {
		var ms []float64
		for end := time.Now().Add(timing.Budget()); time.Now().Before(end); {
			t0 := time.Now()
			if err := call(); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			ms = append(ms, float64(time.Since(t0).Nanoseconds())/1e6)
		}
		sort.Float64s(ms)
		timing.Emit(name, "ms", ms[len(ms)/2], len(ms))
		return nil
	}

	// The 202 path: decode, authenticate, compile, price, enqueue, encode.
	var last string
	rows := []struct {
		name string
		call func() error
	}{
		{"serve.submit_rtt_p50_ms", func() error {
			st, err := cl.Submit(ctx, leaf)
			last = st.ID
			return err
		}},
		// The same with ?wait=1: the response waits for a one-thread job.
		{"serve.wait_rtt_p50_ms", func() error {
			st, err := cl.SubmitWait(ctx, leaf)
			last = st.ID // the newest job: retention cannot have evicted it
			if err == nil && st.Status != "done" {
				err = fmt.Errorf("job %s is %s", st.ID, st.Status)
			}
			return err
		}},
		{"serve.get_rtt_p50_ms", func() error {
			_, err := cl.Job(ctx, last)
			return err
		}},
		{"serve.metrics_scrape_ms", func() error {
			_, err := cl.Metrics(ctx)
			return err
		}},
	}
	for _, r := range rows {
		if err := p50(r.name, r.call); err != nil {
			return err
		}
	}
	return nil
}
