// Command ascsperf is the repository's end-to-end benchmark: it builds
// cmd/ascsd, boots it as a child process per workload, drives the
// workload over loopback HTTP, checks the served answers, and prints
// every metric by name with its unit. With -trace it also prints the
// per-layer ledger: a traced repeat of each workload, /metrics deltas,
// and an in-process ladder of the serving layers. See bench/README.md.
//
//	go -C bench run ./ascsperf -seed 1                 # every workload
//	go -C bench run ./ascsperf -workload dense-cs -seed 2 -seconds 10
//	go -C bench run ./ascsperf -seed 1 -trace -trace-out spans.jsonl
//	go -C bench run ./ascsperf -smoke                  # toy sizes, seconds
//
// The last line of standard output is one JSON object: correct,
// attempted, failed, and the metrics (end-to-end ones, or per-layer ones
// with -trace).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/hashing"
)

// workDir is the run's temporary directory (daemon logs, write-ahead
// logs, the ascsd binary), which the signal handler removes too;
// interrupted is set once the handler has started.
var (
	workDir     atomic.Pointer[string]
	interrupted atomic.Bool
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceOut string
	smoke    bool
	root     string
	// buildDir holds the run's temporary directory: <root>/.bench_build
	// unless a test points it elsewhere.
	buildDir string
	// corruptReference perturbs the dense-cs reference (tests only).
	corruptReference bool
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "ascsperf:", err)
		os.Exit(2)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		s := <-sig
		interrupted.Store(true)
		killAll()
		if dir := workDir.Load(); dir != nil {
			os.RemoveAll(*dir)
		}
		fmt.Fprintf(os.Stderr, "ascsperf: %v: daemons stopped\n", s)
		os.Exit(130)
	}()
	ok, err := run(cfg, os.Stdout)
	if interrupted.Load() {
		// The run failed because the handler killed its daemons; the
		// handler finishes the cleanup and exits.
		select {}
	}
	killAll()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ascsperf:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// parseFlags parses the command line. `--trace 0|1`, with the value
// as a separate argument, is accepted next to the boolean `-trace`.
func parseFlags(args []string) (config, error) {
	var cfg config
	fs := flag.NewFlagSet("ascsperf", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "run one workload (dense-cs, sparse-ascs, mixed-topk, durable-cs); empty runs all")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "length of each measured phase")
	fs.BoolVar(&cfg.trace, "trace", false, "per-layer run: traced repeat, /metrics deltas and the in-process ladder")
	fs.StringVar(&cfg.traceOut, "trace-out", "", "span file written by -trace (default .bench_build/ascsperf-spans.jsonl)")
	fs.BoolVar(&cfg.smoke, "smoke", false, "run every workload at toy size")
	fs.StringVar(&cfg.root, "root", "", "repository checkout holding cmd/ascsd (default: . or ..)")
	if err := fs.Parse(normalizeArgs(args)); err != nil {
		return cfg, err
	}
	if fs.NArg() > 0 {
		return cfg, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if cfg.seconds <= 0 {
		return cfg, fmt.Errorf("-seconds must be positive")
	}
	if cfg.workload != "" {
		if _, err := workloadByName(cfg.workload); err != nil {
			return cfg, err
		}
	}
	return cfg, nil
}

// normalizeArgs rewrites `-trace 0|1` (and the double-dash form) into
// `-trace=0|1`: a boolean flag does not consume a separate value.
func normalizeArgs(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, "-trace="+args[i+1])
			i++
			continue
		}
		out = append(out, a)
	}
	return out
}

// findRoot returns the checkout holding cmd/ascsd: dir itself, or its
// parent when run from bench/.
func findRoot(dir string) (string, error) {
	for _, d := range []string{dir, filepath.Dir(dir)} {
		if _, err := os.Stat(filepath.Join(d, "cmd", "ascsd", "main.go")); err == nil {
			return d, nil
		}
	}
	return "", fmt.Errorf("no cmd/ascsd under %s or its parent: run from the repository root", dir)
}

// metric is one printed measurement. note carries the sample count,
// the percentile actually reported, or a ratio's base.
type metric struct {
	name  string
	value float64
	unit  string
	note  string
}

// result is one workload's outcome. metrics go into the JSON summary;
// info lines are printed only (the end-to-end numbers of a traced run,
// the live WAL counters, the ladder's rung totals).
type result struct {
	workload          string
	metrics, info     []metric
	attempted, failed int
	failures          []string
}

func (r *result) add(name string, v float64, unit, note string) {
	r.metrics = append(r.metrics, metric{name: name, value: v, unit: unit, note: note})
}

func (r *result) addInfo(name string, v float64, unit, note string) {
	r.info = append(r.info, metric{name: name, value: v, unit: unit, note: note})
}

// run executes the configured workloads and prints their metrics; ok is
// false when an output check failed.
func run(cfg config, out io.Writer) (bool, error) {
	root := cfg.root
	if root == "" {
		wd, err := os.Getwd()
		if err != nil {
			return false, err
		}
		if root, err = findRoot(wd); err != nil {
			return false, err
		}
	}
	root, err := filepath.Abs(root)
	if err != nil {
		return false, err
	}
	buildDir := cfg.buildDir
	if buildDir == "" {
		buildDir = filepath.Join(root, ".bench_build")
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return false, err
	}
	work, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return false, err
	}
	workDir.Store(&work)
	defer os.RemoveAll(work)
	bin, err := buildDaemon(root, work)
	if err != nil {
		return false, err
	}
	printEnv(out)

	r := &runner{cfg: cfg, bin: bin, work: work, client: newClient()}
	if cfg.trace {
		r.tr = newTracer()
	}
	sel := workloads
	if cfg.workload != "" {
		w, _ := workloadByName(cfg.workload)
		sel = []workload{w}
	}
	var results []*result
	for _, w := range sel {
		if cfg.smoke {
			w = w.smoke()
		}
		res, err := r.runWorkload(w)
		if err != nil {
			return false, fmt.Errorf("%s: %w", w.name, err)
		}
		printResult(out, res)
		results = append(results, res)
	}
	if r.tr != nil {
		path := cfg.traceOut
		if path == "" {
			path = filepath.Join(buildDir, "ascsperf-spans.jsonl")
		}
		if err := r.tr.writeSpans(path); err != nil {
			return false, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(out, "spans written to %s\n", path)
	}
	return printSummary(out, results)
}

// newClient returns the bench's HTTP client: at most two connections
// (the host's core count) across every loop.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 2 * time.Minute,
		Transport: &http.Transport{
			MaxConnsPerHost:     2,
			MaxIdleConnsPerHost: 2,
			DisableCompression:  true,
		},
	}
}

// printEnv records the host the numbers were measured on.
func printEnv(out io.Writer) {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	fmt.Fprintf(out, "env nproc %d\n", runtime.NumCPU())
	fmt.Fprintf(out, "env gomaxprocs %d\n", runtime.GOMAXPROCS(0))
	fmt.Fprintf(out, "env cpu %s\n", model)
	fmt.Fprintf(out, "env go %s\n", runtime.Version())
	fmt.Fprintf(out, "env cpu_features %s\n", strings.Join(hashing.CPUFeatures(), ","))
}

// printResult prints `workload metric value unit [note]` lines and the
// failed checks.
func printResult(out io.Writer, res *result) {
	for _, m := range append(res.metrics, res.info...) {
		line := fmt.Sprintf("%s %s %.6g %s", res.workload, m.name, m.value, m.unit)
		if m.note != "" {
			line += " " + m.note
		}
		fmt.Fprintln(out, line)
	}
	fmt.Fprintf(out, "%s ops attempted=%d failed=%d\n", res.workload, res.attempted, res.failed)
	for _, f := range res.failures {
		fmt.Fprintf(out, "%s CHECK FAILED: %s\n", res.workload, f)
	}
}

// printSummary prints the final JSON line. With one workload the
// metric names are bare; with several they are prefixed
// `workload.`.
func printSummary(out io.Writer, results []*result) (bool, error) {
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	sum := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{Correct: true, Metrics: map[string]jm{}}
	for _, res := range results {
		sum.Attempted += res.attempted
		sum.Failed += res.failed
		if len(res.failures) > 0 {
			sum.Correct = false
		}
		for _, m := range res.metrics {
			name := m.name
			if len(results) > 1 {
				name = res.workload + "." + name
			}
			v := m.value
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false, fmt.Errorf("%s %s is %v", res.workload, m.name, v)
			}
			sum.Metrics[name] = jm{Value: v, Unit: m.unit}
		}
	}
	b, err := json.Marshal(sum)
	if err != nil {
		return false, err
	}
	fmt.Fprintln(out, string(b))
	return sum.Correct, nil
}

// median returns the median of xs (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}
