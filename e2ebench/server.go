package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// server is one fmserve child process with its own WAL and snapshot
// directories.
type server struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	dir  string

	mu   sync.Mutex
	tail []string // last lines of the server's stderr, for error reports
	done chan struct{}
}

// startServer boots fmserve on an ephemeral port with the WAL (fsync on),
// snapshots on drain only, and state under dir, and waits until it listens.
func startServer(bin, dir string) (*server, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-wal-dir", filepath.Join(dir, "wal"),
		"-snapshot-dir", filepath.Join(dir, "snap"),
		"-snapshot-every=0",
	)
	cmd.Env = runtimeDefaults(os.Environ())
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting fmserve: %w", err)
	}
	s := &server{cmd: cmd, dir: dir, done: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(s.done)
		announced := false
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			s.mu.Lock()
			if s.tail = append(s.tail, line); len(s.tail) > 20 {
				s.tail = s.tail[1:]
			}
			s.mu.Unlock()
			if _, rest, ok := strings.Cut(line, "listening on "); ok && !announced {
				announced = true
				host, _, _ := strings.Cut(rest, " ")
				addr <- host
			}
		}
		_, _ = io.Copy(io.Discard, stderr)
	}()
	select {
	case host := <-addr:
		s.base = "http://" + host
		return s, nil
	case <-s.done:
	case <-time.After(30 * time.Second):
	}
	_ = s.stop()
	return nil, fmt.Errorf("fmserve did not start listening: %s", s.stderrTail())
}

// runtimeDefaults drops the variables that retune the Go runtime, so the
// server always runs with the runtime's defaults whatever the caller's
// environment holds.
func runtimeDefaults(env []string) []string {
	out := env[:0:0]
	for _, kv := range env {
		switch k, _, _ := strings.Cut(kv, "="); k {
		case "GOGC", "GOMEMLIMIT", "GOMAXPROCS", "GODEBUG":
		default:
			out = append(out, kv)
		}
	}
	return out
}

func (s *server) stderrTail() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return strings.Join(s.tail, "\n")
}

// stop drains the server with SIGTERM, kills it if the drain outlasts 30s,
// waits for the process to exit and removes its state directory.
func (s *server) stop() error {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	exited := make(chan error, 1)
	go func() { <-s.done; exited <- s.cmd.Wait() }()
	var err error
	select {
	case err = <-exited:
	case <-time.After(30 * time.Second):
		_ = s.cmd.Process.Kill()
		err = <-exited
		if err == nil {
			err = errors.New("fmserve did not drain within 30s")
		}
	}
	if rmErr := os.RemoveAll(s.dir); err == nil {
		err = rmErr
	}
	if err != nil {
		return fmt.Errorf("stopping fmserve: %w (%s)", err, s.stderrTail())
	}
	return nil
}

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat; it is
// 100 on every Linux architecture Go supports.
const clockTicks = 100

// cpuTime returns the server's user+system CPU time so far.
func (s *server) cpuTime() (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name in field 2 may contain spaces; fields after its
	// closing parenthesis start at field 3 (state).
	i := bytes.LastIndexByte(raw, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc stat line")
	}
	f := strings.Fields(string(raw[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64) // field 14
	stime, err2 := strconv.ParseInt(f[12], 10, 64) // field 15
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(utime+stime) * time.Second / clockTicks, nil
}

// peakRSSMB returns the server's VmHWM in MB.
func (s *server) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", s.cmd.Process.Pid)
}

// hostSteal returns the machine-wide steal and total CPU time from
// /proc/stat, in ticks: time the hypervisor ran someone else while this
// machine's CPUs wanted to run. A window with high steal measured a noisy
// host, not the program.
func hostSteal() (steal, total int64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f) && i <= 8; i++ { // user nice system idle iowait irq softirq steal
		v, _ := strconv.ParseInt(f[i], 10, 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}
