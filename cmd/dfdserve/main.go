// Command dfdserve runs the multi-tenant job service: an HTTP/JSON
// facade over one shared DFDeques runtime, with per-tenant API keys,
// memory budgets (admission and the in-run kill both read the budget),
// cost-based admission, weighted-fair queueing, and live Prometheus
// metrics.
//
// Usage:
//
//	dfdserve -addr :8080 -admin-key root \
//	    -tenants alice:3:1048576::alice-key,bob:1:0
//
// Endpoints (v1):
//
//	POST   /v1/jobs          submit a job (?wait=1 blocks for the result)
//	GET    /v1/jobs/{id}     poll a job
//	DELETE /v1/jobs/{id}     cancel a pending or running job
//	GET    /v1/tenants       per-tenant accounting (admin)
//	GET    /v1/tenants/{id}  one tenant's accounting row
//	PUT    /v1/tenants/{id}  create or update a tenant contract (admin)
//	DELETE /v1/tenants/{id}  remove a tenant (admin)
//	GET    /metrics          Prometheus text exposition
//	GET    /healthz          200 ok / 503 draining
//
// Tenant requests authenticate with X-API-Key (or Authorization:
// Bearer); management requests with X-Admin-Key. A tenant with no key
// configured is open, as is management when -admin-key is unset — a
// dev-mode convenience, not a production posture.
//
// Flags:
//
//	-addr A          listen address (default :8080)
//	-workers N       scheduler workers (default GOMAXPROCS)
//	-sched S         dfd | ws | adf | fifo (default dfd)
//	-k BYTES         memory threshold K; 0 = no quota (default 4096)
//	-seed S          steal-victim seed (default 1)
//	-tenants T       comma-separated name:weight:budget[:pending[:key]]
//	                 specs; budget 0 means no quota (default "default:1:0")
//	-admin-key KEY   management credential; empty = open (default "")
//	-config FILE     JSON serve.Config (overrides the flags above except
//	                 -addr); an unknown key is an error
//	-drain D         max graceful-drain duration on SIGTERM (default 30s)
//	-pprof A         serve net/http/pprof on its own listener at A
//	                 (default off; never on the API address)
//	-smoke URL       run the client-driven smoke sequence against a
//	                 running dfdserve at URL and exit (uses -admin-key)
//
// SIGTERM/SIGINT starts a graceful drain: /healthz flips to 503, new
// submissions are refused, pending and running jobs finish (bounded by
// -drain), then the process exits 0 with no goroutines left.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dfdeques"
	"dfdeques/internal/serve"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		workers  = flag.Int("workers", runtime.GOMAXPROCS(0), "scheduler workers")
		schedN   = flag.String("sched", "dfd", "scheduler: dfd | ws | adf | fifo")
		k        = flag.Int64("k", 4096, "memory threshold K in bytes (0 = no quota)")
		seed     = flag.Int64("seed", 1, "steal-victim seed")
		tenants  = flag.String("tenants", "default:1:0", "name:weight:budget[:pending[:key]],... tenant specs")
		adminKey = flag.String("admin-key", "", "management credential (empty = open)")
		cfgPath  = flag.String("config", "", "JSON config file (overrides scheduler/tenant flags)")
		drain    = flag.Duration("drain", 30*time.Second, "max graceful-drain duration")
		smoke    = flag.String("smoke", "", "run the smoke sequence against a dfdserve at this URL and exit")
		pprofAt  = flag.String("pprof", "", "serve net/http/pprof on this separate address (empty = off)")
	)
	flag.Parse()

	if *smoke != "" {
		if err := runSmoke(*smoke, *adminKey); err != nil {
			fmt.Fprintln(os.Stderr, "dfdserve: smoke:", err)
			os.Exit(1)
		}
		fmt.Println("dfdserve: smoke ok")
		return
	}

	cfg, err := buildConfig(*cfgPath, *workers, *schedN, *k, *seed, *tenants)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dfdserve:", err)
		os.Exit(2)
	}
	if *cfgPath == "" {
		cfg.AdminKey = *adminKey
	}
	s, err := serve.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dfdserve:", err)
		os.Exit(2)
	}

	hs := newHTTPServer(*addr, s.Handler())
	errc := make(chan error, 2)
	go func() { errc <- hs.ListenAndServe() }()
	if *pprofAt != "" {
		ps := newHTTPServer(*pprofAt, pprofHandler())
		defer ps.Close()
		go func() {
			if err := ps.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
				errc <- fmt.Errorf("pprof: %w", err)
			}
		}()
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)

	names := make([]string, 0, len(cfg.Tenants))
	for name := range cfg.Tenants {
		names = append(names, name)
	}
	auth := "open"
	if cfg.AdminKey != "" {
		auth = "keyed"
	}
	fmt.Printf("dfdserve: listening on %s (%d workers, sched=%s, K=%d, admin=%s, tenants=%s)\n",
		*addr, cfg.Runtime.Workers, *schedN, cfg.Runtime.K, auth, strings.Join(names, ","))

	select {
	case sig := <-sigc:
		fmt.Printf("dfdserve: %v: draining (max %v)\n", sig, *drain)
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "dfdserve:", err)
		os.Exit(1)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Stop accepting connections, then run the job drain.
	if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "dfdserve: http shutdown:", err)
	}
	if err := s.Close(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "dfdserve: drain aborted:", err)
		os.Exit(1)
	}
	fmt.Println("dfdserve: drained cleanly")
}

// Slow-client bounds. A client gets readHeaderTimeout to deliver a
// request's line and headers, and an idle keep-alive connection is closed
// after idleTimeout; a request body gets the serving layer's own deadline
// (serve.decodeBody). There is deliberately no WriteTimeout (and no
// ReadTimeout, whose deadline stays armed while the handler runs and
// would cancel the request context): POST /v1/jobs?wait=1 long-polls for
// as long as the job takes.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// pprofHandler serves the runtime profiles under /debug/pprof/. It is a
// mux of its own, for a listener of its own: the API mux never serves it.
func pprofHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// buildConfig assembles the serve.Config from either a JSON file or the
// scheduler/tenant flags. A key the file format does not know — a typo,
// or a setting that no longer exists — fails the start instead of being
// ignored.
func buildConfig(path string, workers int, schedName string, k, seed int64, tenantSpec string) (serve.Config, error) {
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return serve.Config{}, err
		}
		defer f.Close()
		dec := json.NewDecoder(f)
		dec.DisallowUnknownFields()
		var fc fileConfig
		err = dec.Decode(&fc)
		if err == nil && dec.More() {
			err = errors.New("trailing data after the config object")
		}
		if err != nil {
			return serve.Config{}, fmt.Errorf("%s: %w", path, err)
		}
		return fc.toConfig()
	}
	sched, err := parseSched(schedName)
	if err != nil {
		return serve.Config{}, err
	}
	tens, err := parseTenants(tenantSpec)
	if err != nil {
		return serve.Config{}, err
	}
	return serve.Config{
		Runtime: dfdeques.RuntimeConfig{Workers: workers, Sched: sched, K: k, Seed: seed},
		Tenants: tens,
	}, nil
}

// fileConfig is the JSON projection of serve.Config (the scheduler kind
// by name instead of enum value).
type fileConfig struct {
	Workers      int                           `json:"workers"`
	Sched        string                        `json:"sched"`
	K            int64                         `json:"k"`
	Seed         int64                         `json:"seed"`
	Tenants      map[string]serve.TenantConfig `json:"tenants"`
	MaxInflight  int                           `json:"max_inflight"`
	MaxBodyBytes int64                         `json:"max_body_bytes"`
	RetainJobs   int                           `json:"retain_jobs"`
	AdminKey     string                        `json:"admin_key"`
}

func (fc fileConfig) toConfig() (serve.Config, error) {
	name := fc.Sched
	if name == "" {
		name = "dfd"
	}
	sched, err := parseSched(name)
	if err != nil {
		return serve.Config{}, err
	}
	return serve.Config{
		Runtime:      dfdeques.RuntimeConfig{Workers: fc.Workers, Sched: sched, K: fc.K, Seed: fc.Seed},
		Tenants:      fc.Tenants,
		MaxInflight:  fc.MaxInflight,
		MaxBodyBytes: fc.MaxBodyBytes,
		RetainJobs:   fc.RetainJobs,
		AdminKey:     fc.AdminKey,
	}, nil
}

func parseSched(name string) (dfdeques.SchedKind, error) {
	switch name {
	case "dfd", "dfdeques":
		return dfdeques.SchedDFDeques, nil
	case "ws":
		return dfdeques.SchedWS, nil
	case "adf":
		return dfdeques.SchedADF, nil
	case "fifo":
		return dfdeques.SchedFIFO, nil
	}
	return 0, fmt.Errorf("unknown scheduler %q (want dfd, ws, adf, fifo)", name)
}

// parseTenants parses "name:weight:budget[:pending[:key]],..." specs. A
// name given twice is an error: keeping either contract would silently
// drop the other.
func parseTenants(spec string) (map[string]serve.TenantConfig, error) {
	out := make(map[string]serve.TenantConfig)
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		parts := strings.Split(field, ":")
		if len(parts) < 3 || len(parts) > 5 {
			return nil, fmt.Errorf("tenant spec %q: want name:weight:budget[:pending[:key]]", field)
		}
		name := parts[0]
		if _, dup := out[name]; dup {
			return nil, fmt.Errorf("tenant %s: named twice in %q", name, spec)
		}
		weight, err := strconv.Atoi(parts[1])
		if err != nil {
			return nil, fmt.Errorf("tenant %s: bad weight %q", name, parts[1])
		}
		budget, err := strconv.ParseInt(parts[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("tenant %s: bad budget %q", name, parts[2])
		}
		tc := serve.TenantConfig{Weight: weight, MemBudget: budget}
		if len(parts) >= 4 && parts[3] != "" {
			pending, err := strconv.Atoi(parts[3])
			if err != nil {
				return nil, fmt.Errorf("tenant %s: bad pending bound %q", name, parts[3])
			}
			tc.MaxPending = pending
		}
		if len(parts) == 5 {
			tc.APIKey = parts[4]
		}
		out[name] = tc
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("tenant spec %q: no tenants", spec)
	}
	return out, nil
}
