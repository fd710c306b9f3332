package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/server"
)

// buildDaemon compiles cmd/ascsd from the checkout at root into dir and
// returns the binary's path.
func buildDaemon(root, dir string) (string, error) {
	bin := filepath.Join(dir, "ascsd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/ascsd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building ascsd: %v\n%s", err, out)
	}
	return bin, nil
}

// children tracks every daemon the bench started, so the SIGINT handler
// and every error path can kill them.
var children struct {
	mu  sync.Mutex
	set map[*daemon]bool
}

// killAll kills every live daemon and waits for each to exit.
func killAll() {
	children.mu.Lock()
	ds := make([]*daemon, 0, len(children.set))
	for d := range children.set {
		ds = append(ds, d)
	}
	children.mu.Unlock()
	for _, d := range ds {
		d.kill()
	}
}

// daemon is one ascsd child process serving on a loopback port.
type daemon struct {
	cmd  *exec.Cmd
	base string
	log  string
	// done closes when the process has exited and been reaped.
	done chan struct{}
}

// freePort asks the kernel for an unused loopback port. The listener is
// closed before ascsd binds the port; startDaemon's identity check
// catches the (unlikely) case of another process taking it meanwhile.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon execs bin with args on a fresh loopback port, its log
// written to logPath.
func startDaemon(bin string, args []string, logPath string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	f, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = f, f
	// Backstop for a bench killed without running its handlers: the
	// kernel kills the daemon with its parent.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		f.Close()
		return nil, fmt.Errorf("starting ascsd: %w", err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, log: logPath, done: make(chan struct{})}
	children.mu.Lock()
	if children.set == nil {
		children.set = map[*daemon]bool{}
	}
	children.set[d] = true
	children.mu.Unlock()
	go func() {
		cmd.Wait()
		f.Close()
		close(d.done)
	}()
	return d, nil
}

// alive reports whether the process is still running.
func (d *daemon) alive() bool {
	select {
	case <-d.done:
		return false
	default:
		return true
	}
}

// kill SIGKILLs the daemon and waits until it has been reaped.
func (d *daemon) kill() {
	if d.alive() {
		d.cmd.Process.Signal(syscall.SIGKILL)
	}
	<-d.done
	children.mu.Lock()
	delete(children.set, d)
	children.mu.Unlock()
}

// statsStep is the slice of GET /v1/stats the bench reads.
type statsStep struct {
	Manager struct {
		Step    int  `json:"step"`
		Shards  int  `json:"shards"`
		Warming bool `json:"warming"`
	} `json:"manager"`
}

// getStats fetches /v1/stats. On a warm deployment the call rides every
// shard's ingest FIFO, so its return is also a barrier: every batch
// routed before it has been applied.
func getStats(c *http.Client, base string) (statsStep, int, error) {
	var st statsStep
	resp, err := c.Get(base + "/v1/stats")
	if err != nil {
		return st, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return st, resp.StatusCode, nil
	}
	return st, resp.StatusCode, json.NewDecoder(resp.Body).Decode(&st)
}

// waitReady polls /v1/stats until it answers 200, then checks that the
// answer came from this child: the process is alive and reports the
// expected step and shard count. A stale daemon on a reused port would
// answer with some other step, or the child would have died on bind.
func (d *daemon) waitReady(c *http.Client, step, shards int, timeout time.Duration) error {
	start := time.Now()
	deadline := start.Add(timeout)
	for {
		if !d.alive() {
			return fmt.Errorf("ascsd exited during start-up: %s", d.tail())
		}
		st, code, err := getStats(c, d.base)
		if err == nil && code == http.StatusOK {
			if !d.alive() {
				return fmt.Errorf("ascsd exited during start-up: %s", d.tail())
			}
			if st.Manager.Step != step || st.Manager.Shards != shards {
				return fmt.Errorf("process answering %s reports step %d, %d shards; the child should report step %d, %d shards",
					d.base, st.Manager.Step, st.Manager.Shards, step, shards)
			}
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("ascsd not ready after %v (last status %d, err %v)", timeout, code, err)
		}
		// A fresh boot is ready within milliseconds, so the first polls
		// are dense enough not to round its set-up time; a replaying
		// daemon is polled sparsely, so the polls do not slow its replay.
		if time.Since(start) < 50*time.Millisecond {
			time.Sleep(100 * time.Microsecond)
		} else {
			time.Sleep(2 * time.Millisecond)
		}
	}
}

// tail returns the last lines of the daemon log, for error messages.
func (d *daemon) tail() string {
	b, _ := os.ReadFile(d.log)
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) > 5 {
		lines = lines[len(lines)-5:]
	}
	return strings.Join(lines, " | ")
}

// memMB reads a memory line of the process's /proc status: VmRSS (the
// resident set now) or VmHWM (its peak so far), in MiB.
func (d *daemon) memMB(field string) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("%s missing from /proc status", field)
}

// userHZ is the unit of the CPU times in /proc/<pid>/stat (USER_HZ,
// fixed at 100 by the Linux ABI).
const userHZ = 100

// cpu returns the user plus system time of all the daemon's threads so
// far.
func (d *daemon) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The fields after the parenthesized command name start at field 3
	// (state); utime and stime are fields 14 and 15.
	rest := string(b[strings.LastIndexByte(string(b), ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", b)
	}
	var ticks int64
	for _, s := range f[11:13] {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parsing /proc stat: %w", err)
		}
		ticks += v
	}
	return time.Duration(ticks) * time.Second / userHZ, nil
}

// sampleRSS reads VmRSS now and every interval until the returned stop
// function is called; stop (safe to call again) waits for the sampler
// and returns its samples.
func (d *daemon) sampleRSS(interval time.Duration) (stop func() []float64) {
	done := make(chan struct{})
	var out []float64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			if v, err := d.memMB("VmRSS"); err == nil {
				out = append(out, v)
			}
			select {
			case <-done:
				return
			case <-tick.C:
			}
		}
	}()
	var once sync.Once
	return func() []float64 {
		once.Do(func() {
			close(done)
			wg.Wait()
		})
		return out
	}
}

// post sends one pre-encoded ingest body and decodes the response.
func post(c *http.Client, base string, body []byte, reqID string) (server.IngestResponse, int, error) {
	var out server.IngestResponse
	req, err := http.NewRequest(http.MethodPost, base+"/v1/ingest", bytes.NewReader(body))
	if err != nil {
		return out, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if reqID != "" {
		req.Header.Set("X-Request-ID", reqID)
	}
	resp, err := c.Do(req)
	if err != nil {
		return out, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return out, resp.StatusCode, nil
	}
	return out, resp.StatusCode, json.NewDecoder(resp.Body).Decode(&out)
}

// getJSON GETs path and decodes a 200 answer into v.
func getJSON(c *http.Client, base, path, reqID string, v any) (int, error) {
	req, err := http.NewRequest(http.MethodGet, base+path, nil)
	if err != nil {
		return 0, err
	}
	if reqID != "" {
		req.Header.Set("X-Request-ID", reqID)
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil
	}
	if v == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, err
	}
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(v)
}

// topKPath is the query every top-k request of the bench issues.
var topKPath = "/v1/topk?k=" + strconv.Itoa(topK) + "&magnitude=1"
