package main

import (
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dfdeques/internal/serve"
)

// TestStalledRequestLineIsClosed drives the server main builds: a client
// that stalls mid request line is disconnected once the header timeout
// passes, while a handler that outlasts the same timeout — a ?wait=1
// long-poll — still answers, because nothing bounds the write side.
func TestStalledRequestLineIsClosed(t *testing.T) {
	const slow = 300 * time.Millisecond
	hs := newHTTPServer("", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(2 * slow)
		io.WriteString(w, "done")
	}))
	if hs.ReadHeaderTimeout != readHeaderTimeout || hs.IdleTimeout != idleTimeout {
		t.Fatalf("timeouts = header %v idle %v, want the package constants", hs.ReadHeaderTimeout, hs.IdleTimeout)
	}
	if hs.WriteTimeout != 0 || hs.ReadTimeout != 0 {
		t.Fatalf("WriteTimeout %v / ReadTimeout %v set: ?wait=1 long-polls would be cut off", hs.WriteTimeout, hs.ReadTimeout)
	}
	hs.ReadHeaderTimeout = slow // the production mechanism at test scale

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go hs.Serve(ln)
	defer hs.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST /v1/jo"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	conn.SetReadDeadline(start.Add(10 * time.Second))
	// The server may say why (a 4xx) before hanging up; what matters is
	// that it hangs up: ReadAll returns only at EOF or at the deadline.
	if reply, err := io.ReadAll(conn); err != nil {
		t.Fatalf("stalled connection still open after %v: %v (read %q)", time.Since(start), err, reply)
	}
	if d := time.Since(start); d < slow/2 {
		t.Fatalf("connection closed after %v, before the header timeout %v", d, slow)
	}

	resp, err := http.Get("http://" + ln.Addr().String() + "/v1/jobs?wait=1")
	if err != nil {
		t.Fatalf("long-poll outlasting the header timeout: %v", err)
	}
	defer resp.Body.Close()
	if body, err := io.ReadAll(resp.Body); err != nil || string(body) != "done" {
		t.Fatalf("long-poll body = %q, err %v; want done", body, err)
	}
}

// TestConfigFileRejectsUnknownKeys: the -config file decodes strictly. A
// file with only known keys — the shape a benchmark harness writes —
// loads; a key the format does not know, whether a setting that no longer
// exists or a typo, fails the start instead of being dropped.
func TestConfigFileRejectsUnknownKeys(t *testing.T) {
	write := func(body string) string {
		path := filepath.Join(t.TempDir(), "config.json")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	known := `{"workers": 2, "sched": "dfd", "k": 1024, "seed": 3,
		"tenants": {"t0": {"weight": 1, "max_pending": 512, "mem_budget": 8192}},
		"retain_jobs": 1048576, "max_inflight": 1}`
	cfg, err := buildConfig(write(known), 0, "", 0, 0, "")
	if err != nil {
		t.Fatalf("known keys refused: %v", err)
	}
	if cfg.Runtime.K != 1024 || cfg.MaxInflight != 1 || cfg.Tenants["t0"].MemBudget != 8192 {
		t.Fatalf("config not loaded: %+v", cfg)
	}
	for _, key := range []string{"budget_headroom", "controller_interval", "max_inflght"} {
		body := `{"tenants": {"t0": {"weight": 1}}, "` + key + `": 1}`
		if _, err := buildConfig(write(body), 0, "", 0, 0, ""); err == nil || !strings.Contains(err.Error(), key) {
			t.Fatalf("key %q: want an error naming it, got %v", key, err)
		}
	}
	if _, err := buildConfig(write(known+`{}`), 0, "", 0, 0, ""); err == nil {
		t.Fatal("trailing data after the config object accepted")
	}
}

// TestTenantSpecRejectsRepeatedName: a tenant named twice in -tenants is
// an error — keeping either contract would silently drop the other (here,
// a budget).
func TestTenantSpecRejectsRepeatedName(t *testing.T) {
	if _, err := parseTenants("a:1:4096,a:1:0"); err == nil || !strings.Contains(err.Error(), "named twice") {
		t.Fatalf("repeated tenant: want a named-twice error, got %v", err)
	}
	tens, err := parseTenants("a:1:4096,b:1:0")
	if err != nil || len(tens) != 2 || tens["a"].MemBudget != 4096 {
		t.Fatalf("distinct tenants: %v %+v", err, tens)
	}
}

// TestPprofOnlyOnItsOwnHandler: -pprof's handler serves the profiles;
// the API handler does not.
func TestPprofOnlyOnItsOwnHandler(t *testing.T) {
	rec := httptest.NewRecorder()
	pprofHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/pprof/cmdline", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("pprof handler: /debug/pprof/cmdline = %d", rec.Code)
	}
	cfg, err := buildConfig("", 1, "dfd", 1024, 1, "default:1:0")
	if err != nil {
		t.Fatal(err)
	}
	s, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(context.Background())
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/pprof/", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("API handler: /debug/pprof/ = %d, want 404", rec.Code)
	}
}
