package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// serverProc is one launched cmd/server process.
type serverProc struct {
	cmd      *exec.Cmd
	launched time.Time
	addr     string // KV address, as the server printed it
	metrics  string // http://host:port/metrics

	readerDone chan struct{} // closed when the stdout reader has seen EOF
	mu         sync.Mutex
	finalSize  int64 // from the drain line; -1 until printed
	lines      []string
}

// serverGOMAXPROCS is the GOMAXPROCS the server process runs with.
const serverGOMAXPROCS = 2

// freePort asks the kernel for a free loopback port. cmd/server prints the
// address it bound for the KV listener but not for -metrics, so the
// metrics port is chosen here.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// startServer launches bin with args plus a free KV and metrics port and
// waits until it has printed the address it serves on (the listener is
// bound by then; with -wal-dir, recovery has finished) and its metrics
// endpoint answers. cmd/server installs its SIGTERM handler just after
// starting the metrics listener, so waiting for it also keeps a quick
// stop from killing the server before it can drain.
func startServer(hc *http.Client, bin string, args []string) (*serverProc, error) {
	mport, err := freePort()
	if err != nil {
		return nil, fmt.Errorf("pick metrics port: %w", err)
	}
	maddr := fmt.Sprintf("127.0.0.1:%d", mport)
	args = append([]string{"-addr", "127.0.0.1:0", "-metrics", maddr}, args...)
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", serverGOMAXPROCS))
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	sp := &serverProc{
		cmd:        cmd,
		metrics:    "http://" + maddr + "/metrics",
		readerDone: make(chan struct{}),
		finalSize:  -1,
	}
	addrC := make(chan string, 1) // the one "serving ... on ADDR" line
	sp.launched = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start server: %w", err)
	}
	go sp.readStdout(out, addrC)
	select {
	case sp.addr = <-addrC:
		if _, err := scrapeRetry(hc, sp.metrics); err != nil {
			sp.kill()
			return nil, err
		}
		return sp, nil
	case <-sp.readerDone:
	case <-time.After(30 * time.Second):
	}
	sp.kill()
	return nil, fmt.Errorf("server did not report its address; output:\n%s", sp.output())
}

func (sp *serverProc) readStdout(r io.Reader, addrC chan<- string) {
	defer close(sp.readerDone)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		sp.mu.Lock()
		sp.lines = append(sp.lines, line)
		if i := strings.LastIndex(line, "final size "); i >= 0 {
			if n, err := strconv.ParseInt(strings.TrimSpace(line[i+len("final size "):]), 10, 64); err == nil {
				sp.finalSize = n
			}
		}
		sp.mu.Unlock()
		if strings.HasPrefix(line, "server: serving ") {
			if i := strings.LastIndex(line, " on "); i >= 0 {
				select {
				case addrC <- line[i+len(" on "):]:
				default:
				}
			}
		}
	}
}

func (sp *serverProc) output() string {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return strings.Join(sp.lines, "\n")
}

func (sp *serverProc) pid() int { return sp.cmd.Process.Pid }

// stop sends SIGTERM and waits for the graceful drain. It returns the final
// size the server printed, or an error when it did not exit cleanly.
func (sp *serverProc) stop() (int64, error) {
	if err := sp.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		sp.kill()
		return -1, fmt.Errorf("signal server: %w", err)
	}
	select {
	case <-sp.readerDone:
	case <-time.After(30 * time.Second):
		sp.kill()
		return -1, fmt.Errorf("server did not exit within 30s of SIGTERM")
	}
	if err := sp.cmd.Wait(); err != nil {
		return -1, fmt.Errorf("server exit: %w; output:\n%s", err, sp.output())
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.finalSize < 0 {
		return -1, fmt.Errorf("server printed no final size; output:\n%s", strings.Join(sp.lines, "\n"))
	}
	return sp.finalSize, nil
}

// kill ends the process on an error path and waits for it.
func (sp *serverProc) kill() {
	_ = sp.cmd.Process.Kill() // already exited is fine
	<-sp.readerDone
	_ = sp.cmd.Wait() // the kill is the error being reported
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times on Linux.
const clockTick = 100

// procCPU returns a process's user+system CPU time. It sums the scheduler's
// per-thread run time (se.sum_exec_runtime in /proc/<pid>/task/*/sched,
// nanosecond resolution) and falls back to utime+stime from
// /proc/<pid>/stat, whose 10ms ticks quantise a low-rate window, when the
// kernel does not expose it. A thread that exits between two readings
// takes its time with it; the Go runtime keeps its threads.
func procCPU(pid int) (time.Duration, error) {
	if d, err := schedCPU(pid); err == nil {
		return d, nil
	}
	return statCPU(pid)
}

func schedCPU(pid int) (time.Duration, error) {
	tasks, err := os.ReadDir(fmt.Sprintf("/proc/%d/task", pid))
	if err != nil {
		return 0, err
	}
	var total time.Duration
	for _, t := range tasks {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/task/%s/sched", pid, t.Name()))
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				continue // the thread exited after the listing
			}
			return 0, err
		}
		ms, err := schedField(string(b), "se.sum_exec_runtime")
		if err != nil {
			return 0, fmt.Errorf("/proc/%d/task/%s/sched: %w", pid, t.Name(), err)
		}
		total += time.Duration(ms * 1e6)
	}
	return total, nil
}

// schedField returns a numeric field of a /proc/.../sched dump.
func schedField(dump, name string) (float64, error) {
	for _, line := range strings.Split(dump, "\n") {
		k, v, ok := strings.Cut(line, ":")
		if ok && strings.TrimSpace(k) == name {
			return strconv.ParseFloat(strings.TrimSpace(v), 64)
		}
	}
	return 0, fmt.Errorf("no %s field", name)
}

func statCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name: state is field 3, utime
	// and stime are fields 14 and 15.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("/proc/%d/stat: no command field", pid)
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: %d fields", pid, len(f))
	}
	var ticks int64
	for _, s := range f[11:13] {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("/proc/%d/stat: %w", pid, err)
		}
		ticks += n
	}
	return time.Duration(ticks) * time.Second / clockTick, nil
}

// hostTicks returns the host's steal and total CPU ticks from the first
// line of /proc/stat. Steal is time the hypervisor ran something else while
// this machine's vCPUs wanted to run; it is recorded so a run taken on a
// busy host can be told apart.
func hostTicks() (steal, total int64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("/proc/stat: odd first line %q", line)
	}
	for i, s := range f[1:] {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("/proc/stat: %w", err)
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total, nil
}

// procPeakRSS returns a process's peak resident set (VmHWM) in bytes.
func procPeakRSS(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) != 2 || f[1] != "kB" {
				return 0, fmt.Errorf("/proc/%d/status: odd VmHWM line %q", pid, line)
			}
			kb, err := strconv.ParseInt(f[0], 10, 64)
			return kb << 10, err
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM", pid)
}

// selfCPU returns this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// scrape fetches and parses the server's Prometheus exposition.
func scrape(hc *http.Client, metricsURL string) (promSnap, error) {
	resp, err := hc.Get(metricsURL + "?format=prom")
	if err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape: HTTP %d", resp.StatusCode)
	}
	snap, err := parseSnap(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}
	return snap, nil
}

// scrapeRetry scrapes, retrying while the metrics listener (started by the
// server after its KV listener) comes up.
func scrapeRetry(hc *http.Client, metricsURL string) (promSnap, error) {
	deadline := time.Now().Add(10 * time.Second)
	for {
		snap, err := scrape(hc, metricsURL)
		if err == nil || time.Now().After(deadline) {
			return snap, err
		}
		time.Sleep(time.Millisecond)
	}
}

// fsName names the file system holding dir from its statfs magic.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext2/3/4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	default:
		return fmt.Sprintf("0x%x", uint64(st.Type))
	}
}
