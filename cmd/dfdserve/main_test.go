package main

import (
	"io"
	"net"
	"net/http"
	"testing"
	"time"
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
