package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one server child process: ppaserved or pparouter, built from
// the commit under test.
type daemon struct {
	name string
	cmd  *exec.Cmd
	url  string
	out  chan struct{} // closed when the stdout reader has drained the pipe
}

// startDaemon runs bin with args plus an ephemeral loopback listen
// address and returns once the daemon has announced the address it
// listens on ("<name> listening on <addr> ...").
func startDaemon(binDir, name string, args ...string) (*daemon, error) {
	cmd := exec.Command(filepath.Join(binDir, name), append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Stderr = os.Stderr
	// The kernel kills the daemon if the benchmark itself dies.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	d := &daemon{name: name, cmd: cmd, out: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(d.out)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if _, rest, ok := strings.Cut(sc.Text(), " listening on "); ok {
				a, _, _ := strings.Cut(rest, " ")
				select {
				case addr <- a:
				default:
				}
			}
		}
		// Keep draining after a scan error so the daemon never blocks on
		// a full pipe.
		_, _ = io.Copy(io.Discard, stdout)
	}()
	select {
	case a := <-addr:
		d.url = "http://" + a
		return d, nil
	case <-d.out:
		d.stop()
		return nil, fmt.Errorf("%s exited before listening", name)
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, fmt.Errorf("%s did not announce a listen address within 30s", name)
	}
}

// stop asks the daemon to drain (SIGTERM), kills it if it has not exited
// within five seconds, and waits for the process and its output reader.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		<-d.out
		_ = d.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		_ = d.cmd.Process.Kill()
		<-done
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// cpuNS is the daemon's on-CPU time so far in nanoseconds, summed over
// its threads from /proc/<pid>/task/*/schedstat.
func (d *daemon) cpuNS() (int64, error) {
	dirs, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", d.pid()))
	if err != nil {
		return 0, err
	}
	var total int64
	for _, p := range dirs {
		b, err := os.ReadFile(p)
		if err != nil {
			continue // a thread that exited between glob and read
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			continue
		}
		v, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%s: %v", p, err)
		}
		total += v
	}
	if len(dirs) == 0 {
		return 0, fmt.Errorf("no schedstat for pid %d", d.pid())
	}
	return total, nil
}

// peakRSSMB is the daemon's peak resident set (VmHWM) in MiB.
func (d *daemon) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.pid()))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM for pid %d", d.pid())
}

// promSample is one scraped /metrics exposition: series name with its
// label set, as printed, to value.
type promSample map[string]float64

func scrape(ctx context.Context, hc *http.Client, url string) (promSample, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", url, err)
	}
	defer resp.Body.Close()
	out := promSample{}
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
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sum adds every series whose name (before any label set) is name.
func (p promSample) sum(name string) float64 {
	total := 0.0
	for k, v := range p {
		if k == name || strings.HasPrefix(k, name+"{") {
			total += v
		}
	}
	return total
}
