// Package sut runs dfdserve as a child process for the benchmark: start it
// on a loopback port, wait for /healthz, read its CPU time and peak RSS
// from /proc, and stop it. The harness and the serve probe share it.
package sut

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTick is USER_HZ, the unit of utime/stime in /proc/<pid>/stat. It
// is 100 on every Linux ABI Go supports; sysconf would need cgo.
const clockTick = 100

// Proc is one dfdserve incarnation.
type Proc struct {
	cmd  *exec.Cmd
	addr string
	died chan struct{} // closed once the process has been reaped
}

// FreeAddr returns a loopback host:port that was free a moment ago.
func FreeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("sut: pick a port: %w", err)
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// Start execs bin with "-addr addr" followed by args; the child's output
// goes to log. The caller must Stop it.
func Start(bin, addr string, log io.Writer, args ...string) (*Proc, error) {
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = log, log
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("sut: start %s: %w", bin, err)
	}
	p := &Proc{cmd: cmd, addr: addr, died: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a killed child carries no news
		close(p.died)
	}()
	return p, nil
}

// URL is the child's base URL.
func (p *Proc) URL() string { return "http://" + p.addr }

// PID is the child's process id.
func (p *Proc) PID() int { return p.cmd.Process.Pid }

// Died is closed when the child has exited, for any reason.
func (p *Proc) Died() <-chan struct{} { return p.died }

// WaitHealthy polls /healthz every millisecond until it answers 200, the
// child dies, or ctx ends.
func (p *Proc) WaitHealthy(ctx context.Context) error {
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.URL()+"/healthz", nil)
		if err != nil {
			return err
		}
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-p.died:
			return fmt.Errorf("sut: child exited before /healthz answered")
		case <-ctx.Done():
			return fmt.Errorf("sut: /healthz: %w", ctx.Err())
		case <-tick.C:
		}
	}
}

// Stop sends SIGTERM, waits up to two seconds for the graceful drain,
// then kills. It returns once the child has been reaped.
func (p *Proc) Stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // fails only if already gone
	select {
	case <-p.died:
		return
	case <-time.After(2 * time.Second):
	}
	_ = p.cmd.Process.Kill()
	<-p.died
}

// CPUSeconds is the user+system CPU time pid has consumed so far.
func CPUSeconds(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields are counted
	// from the closing parenthesis: state is field 3, utime 14, stime 15.
	s := string(raw)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("sut: short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("sut: bad cpu fields in /proc/%d/stat", pid)
	}
	return float64(ut+st) / clockTick, nil
}

// PeakRSSMB is pid's resident-set high-water mark in MiB (VmHWM), or 0
// when /proc does not say.
func PeakRSSMB(pid int) float64 {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}
