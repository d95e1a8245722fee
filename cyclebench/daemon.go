package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// daemon is one shadowd child process listening on loopback TCP.
type daemon struct {
	cmd       *exec.Cmd
	addr      string // shadow protocol address
	adminAddr string // admin HTTP address (/metrics)
	logDone   chan struct{}
}

var (
	listenRe = regexp.MustCompile(`listening on (\S+)`)
	adminRe  = regexp.MustCompile(`admin endpoint on (\S+)`)
)

// startDaemon launches shadowd on ephemeral loopback ports and waits until
// it has logged both listen addresses.
func startDaemon(bin string, args ...string) (*daemon, error) {
	args = append([]string{"-addr", "127.0.0.1:0", "-admin", "127.0.0.1:0"}, args...)
	cmd := exec.Command(bin, args...)
	// The daemon dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start shadowd: %w", err)
	}
	d := &daemon{cmd: cmd, logDone: make(chan struct{})}
	found := make(chan struct{})
	var early []string // log lines before the announcement, for errors
	go func() {
		defer close(d.logDone)
		sc := bufio.NewScanner(stderr)
		announced := false
		for sc.Scan() {
			line := sc.Text()
			if announced {
				continue
			}
			early = append(early, line)
			if m := listenRe.FindStringSubmatch(line); m != nil {
				d.addr = m[1]
			}
			if m := adminRe.FindStringSubmatch(line); m != nil {
				d.adminAddr = m[1]
			}
			if d.addr != "" && d.adminAddr != "" {
				announced = true
				close(found)
			}
		}
		// Drain anything the scanner could not split so the child
		// never blocks on a full pipe.
		_, _ = io.Copy(io.Discard, stderr)
	}()
	select {
	case <-found:
		return d, nil
	case <-d.logDone:
		_ = d.stop()
		return nil, fmt.Errorf("shadowd exited before listening: %s", strings.Join(early, " | "))
	case <-time.After(30 * time.Second):
		_ = d.stop()
		return nil, errors.New("shadowd did not announce its addresses within 30s")
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop asks shadowd to drain and exit, kills it if it does not, and waits
// for the process and its log reader to end.
func (d *daemon) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	waited := make(chan error, 1)
	go func() { waited <- d.cmd.Wait() }()
	var err error
	select {
	case err = <-waited:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		err = <-waited
	}
	<-d.logDone
	return err
}

// cpuTicks reads utime+stime of a process from /proc/<pid>/stat, in
// clock ticks (USER_HZ, 100 per second on Linux).
func cpuTicks(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields resume after its ')'.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	u, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad cpu fields in /proc/%d/stat", pid)
	}
	return u + st, nil
}

const ticksPerSecond = 100

// procStatus reads one "Key:   value ..." line of /proc/<pid>/status.
func procStatus(pid int, key string) (string, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && k == key {
			return strings.TrimSpace(v), nil
		}
	}
	return "", fmt.Errorf("/proc/%d/status has no %s", pid, key)
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMB(pid int) (float64, error) {
	v, err := procStatus(pid, "VmHWM")
	if err != nil {
		return 0, err
	}
	kb, err := strconv.ParseFloat(strings.TrimSuffix(v, " kB"), 64)
	if err != nil {
		return 0, fmt.Errorf("VmHWM %q: %w", v, err)
	}
	return kb / 1024, nil
}

// allowedCPUs counts the CPUs in a process's affinity list — the value the
// Go runtime takes as GOMAXPROCS when the environment does not set it.
func allowedCPUs(pid int) (int, error) {
	v, err := procStatus(pid, "Cpus_allowed_list")
	if err != nil {
		return 0, err
	}
	n := 0
	for _, part := range strings.Split(v, ",") {
		lo, hi, isRange := strings.Cut(part, "-")
		a, err := strconv.Atoi(lo)
		if err != nil {
			return 0, fmt.Errorf("Cpus_allowed_list %q: %w", v, err)
		}
		b := a
		if isRange {
			if b, err = strconv.Atoi(hi); err != nil {
				return 0, fmt.Errorf("Cpus_allowed_list %q: %w", v, err)
			}
		}
		n += b - a + 1
	}
	return n, nil
}

// promSample is one scrape of shadowd's /metrics: series name (labels
// included verbatim) to value.
type promSample map[string]float64

func scrape(ctx context.Context, adminAddr string) (promSample, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+adminAddr+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape /metrics: %s", resp.Status)
	}
	out := make(promSample)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("scrape /metrics: %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	return out, nil
}

// countingConn counts the bytes and write calls crossing a client socket.
type countingConn struct {
	net.Conn
	c *connCounters
}

type connCounters struct {
	read, written, writes atomic.Int64
}

func (c *connCounters) snapshot() connSnap {
	return connSnap{read: c.read.Load(), written: c.written.Load(), writes: c.writes.Load()}
}

type connSnap struct{ read, written, writes int64 }

func (a connSnap) add(b connSnap) connSnap {
	return connSnap{read: a.read + b.read, written: a.written + b.written, writes: a.writes + b.writes}
}

func (a connSnap) sub(b connSnap) connSnap {
	return connSnap{read: a.read - b.read, written: a.written - b.written, writes: a.writes - b.writes}
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.c.read.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.c.written.Add(int64(n))
	c.c.writes.Add(1)
	return n, err
}
