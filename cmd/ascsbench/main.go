// Command ascsbench benchmarks the single-thread ingest hot path — the
// per-pair cost that bounds how fast the O(d²) pair stream of §5 can be
// absorbed — and emits a machine-readable BENCH_ingest.json so future
// changes have a recorded number to beat.
//
//	ascsbench -out BENCH_ingest.json
//	ascsbench -engines ascs -benchtime 2s
//
// The workload is the paper's throughput regime: the sampling phase with
// a primed working set whose every offer passes the τ gate (tracked,
// admitted-pair case — the most hash-intensive path). Four modes are
// measured per engine:
//
//   - legacy: the pre-fusion per-offer sequence replayed on the raw
//     count sketch — gate Estimate, Add, tracker Estimate (three hash
//     phases for ASCS, two for CS). This is the "before" number and
//     stays reproducible after the fused paths land.
//   - percall: engine Offer through the Engine interface plus the
//     separate tracker Estimate (Offer is internally fused, so this
//     costs two hash phases).
//   - fused: OfferEstimate — one hash phase serves gate, insert, and
//     tracker estimate.
//   - batch: OfferPairs with the wave group pinned to 1 — fused plus
//     batched interface dispatch, the scalar batch loop (the pre-wave
//     number, kept measurable as the wave baseline).
//   - batch-decay: the batch arm on an engine in exponential-decay
//     (unbounded-stream) mode, with one step advance per chunk so every
//     lazy decay tick is paid — the steady-state cost of sliding-window
//     serving, which must match batch within noise and stay 0
//     allocs/pair.
//   - wave: OfferPairs at the default wave group — staged group ingest
//     (group hashing → touch/prefetch of the K·G cells → gather →
//     gate/scatter) that overlaps the per-pair table-cell misses.
//   - wave-decay: the wave arm on a decayed engine (same contract as
//     batch-decay: within noise of wave, 0 allocs/pair).
//
// The -sweepranges flag additionally runs a batch-vs-wave sweep across
// table ranges from cache-resident to DRAM-resident (working set
// scaled with the range), because the wave win lives where the tables
// miss: at the cache-resident record config the touch pass mostly
// re-reads L2-resident lines, while at production ranges the K
// dependent misses dominate the per-pair cost and overlapping them is
// the remaining constant factor. The env block records the CPU model
// and cache sizes so sweep files from different hosts are comparable.
//
// The -foldsweep flag runs the elastic-memory sweep: each engine is fed
// a varied stream, then folded level by level, recording the serialized
// snapshot bytes (the 2^L shrink that folded snapshots buy) and the RMS
// estimate deviation each level introduces against the engine's own
// unfolded estimates (the collision noise the fold trades for memory,
// expected to grow ~2^(L/2)).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/countsketch"
	"repro/internal/hashing"
	"repro/internal/shard"
	"repro/internal/sketchapi"
	"repro/internal/stream"
)

type Result struct {
	Engine        string  `json:"engine"`
	Mode          string  `json:"mode"`
	HashPhases    int     `json:"hash_phases_per_pair"`
	NsPerPair     float64 `json:"ns_per_pair"`
	PairsPerSec   float64 `json:"pairs_per_sec"`
	AllocsPerPair float64 `json:"allocs_per_pair"`
	BytesPerPair  float64 `json:"bytes_per_pair"`
}

type EnvInfo struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	// CPUModel and CPUCache come from /proc/cpuinfo ("model name" and
	// "cache size"); Caches lists the per-level cache sizes from sysfs
	// when readable. Sweep numbers are only comparable between hosts
	// with comparable cache hierarchies, so the file records them.
	CPUModel string   `json:"cpu_model,omitempty"`
	CPUCache string   `json:"cpu_cache,omitempty"`
	Caches   []string `json:"caches,omitempty"`
	// CPUFeatures lists the ISA extensions the hashing kernels detected
	// and will actually use (e.g. avx2, bmi2). Empty means the pure-Go
	// fallbacks ran, so kernel-sensitive numbers (wave) are
	// not comparable with files from vectorized hosts.
	CPUFeatures []string `json:"cpu_features,omitempty"`
}

// readCPUInfo extracts the first "model name" and "cache size" entries
// of /proc/cpuinfo (best effort; absent on non-Linux hosts).
func readCPUInfo() (model, cache string) {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "", ""
	}
	for _, line := range strings.Split(string(b), "\n") {
		k, v, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		k, v = strings.TrimSpace(k), strings.TrimSpace(v)
		switch {
		case model == "" && k == "model name":
			model = v
		case cache == "" && k == "cache size":
			cache = v
		}
		if model != "" && cache != "" {
			break
		}
	}
	return model, cache
}

// readSysCaches lists cpu0's cache levels from sysfs, e.g.
// ["L1d 32K", "L2 1024K", "L3 36864K"] (best effort).
func readSysCaches() []string {
	var out []string
	for i := 0; i < 8; i++ {
		dir := fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d", i)
		read := func(name string) string {
			b, err := os.ReadFile(dir + "/" + name)
			if err != nil {
				return ""
			}
			return strings.TrimSpace(string(b))
		}
		level, size, typ := read("level"), read("size"), read("type")
		if level == "" || size == "" {
			break
		}
		suffix := ""
		switch typ {
		case "Data":
			suffix = "d"
		case "Instruction":
			suffix = "i"
		}
		out = append(out, fmt.Sprintf("L%s%s %s", level, suffix, size))
	}
	return out
}

type SpeedupEntry struct {
	Engine   string  `json:"engine"`
	Mode     string  `json:"mode"`
	Baseline string  `json:"baseline_mode"`
	Speedup  float64 `json:"speedup"`
}

// SweepPoint is one table range of the batch-vs-wave sweep: the scalar
// batch loop against the wave pipeline at identical working sets, with
// the footprints recorded so the cache-vs-DRAM regime is legible.
type SweepPoint struct {
	RangeLog2  int `json:"range_log2"`
	Range      int `json:"range"`
	WorkingSet int `json:"working_set_keys"`
	// TableBytes is the sketch's table footprint K·R·8; TouchedBytes
	// approximates the bytes the working set actually addresses
	// (K·keys·8, ignoring line rounding) — the number to compare
	// against the cache sizes in env.
	TableBytes   int64    `json:"table_bytes"`
	TouchedBytes int64    `json:"touched_bytes_approx"`
	Results      []Result `json:"results"`
	// WaveSpeedup is batch ns/pair ÷ wave ns/pair at this range.
	WaveSpeedup float64 `json:"wave_speedup"`
}

// FoldPoint is one level of the -foldsweep arm: the serialized size of
// the engine folded to that level and the RMS estimate deviation the
// fold introduces over the primed working set, measured against the
// engine's own unfolded estimates. Level 0 is the uncompressed
// reference (shrink 1, deviation 0); SignalRMS is the reference
// estimates' own RMS magnitude, the scale the deviation is read against.
type FoldPoint struct {
	Engine       string  `json:"engine"`
	Level        int     `json:"level"`
	Bytes        int     `json:"serialized_bytes"`
	Shrink       float64 `json:"shrink_vs_full"`
	RMSDeviation float64 `json:"rms_deviation"`
	SignalRMS    float64 `json:"signal_rms"`
}

// WALPoint is one sync policy of the -walsweep arm: the shard-manager
// ingest cost per pair with the write-ahead log off ("none"), armed
// without fsync ("off"), fsynced on a timer ("interval"), or fsynced
// per commit group ("batch") — the ns/pair premium each durability
// level charges the hot path, plus the log traffic it generated.
type WALPoint struct {
	Sync          string  `json:"sync"`
	NsPerPair     float64 `json:"ns_per_pair"`
	PairsPerSec   float64 `json:"pairs_per_sec"`
	AllocsPerPair float64 `json:"allocs_per_pair"`
	// OverheadNs is this policy's ns/pair minus the "none" baseline's.
	OverheadNs float64 `json:"overhead_ns_vs_none"`
	WALBytes   uint64  `json:"wal_appended_bytes"`
	WALFsyncs  uint64  `json:"wal_fsyncs"`
}

type Report struct {
	Config struct {
		Tables     int    `json:"tables"`
		Range      int    `json:"range"`
		WorkingSet int    `json:"working_set_keys"`
		BatchChunk int    `json:"batch_chunk"`
		WaveGroup  int    `json:"wave_group"`
		BenchTime  string `json:"benchtime"`
	} `json:"config"`
	Env        EnvInfo        `json:"env"`
	Results    []Result       `json:"results"`
	Speedups   []SpeedupEntry `json:"speedups,omitempty"`
	RangeSweep []SweepPoint   `json:"range_sweep,omitempty"`
	FoldSweep  []FoldPoint    `json:"fold_sweep,omitempty"`
	WALSweep   []WALPoint     `json:"wal_sweep,omitempty"`
	Notes      string         `json:"notes"`
}

func main() {
	var (
		tables      = flag.Int("tables", 5, "hash tables K")
		rng         = flag.Int("range", 1<<14, "buckets per table R")
		nkeys       = flag.Int("keys", 1024, "working-set size (primed, admitted keys)")
		chunk       = flag.Int("chunk", 512, "pairs per OfferPairs call in batch mode")
		benchtime   = flag.Duration("benchtime", time.Second, "target run time per mode")
		engines     = flag.String("engines", "ascs,cs", "comma-separated engines: ascs, cs")
		out         = flag.String("out", "BENCH_ingest.json", "output report path")
		sweepRanges = flag.String("sweepranges", "14,16,18,20,22",
			"comma-separated log2 table ranges for the batch-vs-wave sweep (cache-resident → DRAM-resident; empty disables)")
		sweepEngine = flag.String("sweepengine", "ascs", "engine measured by the range sweep")
		foldSweep   = flag.Int("foldsweep", 3,
			"deepest fold level for the accuracy/bytes-vs-level fold sweep over -engines (0 disables)")
		walSweep = flag.Bool("walsweep", true,
			"measure shard-manager ingest under -wal-sync off/interval/batch vs no WAL (false disables)")
	)
	testing.Init() // registers test.benchtime, set per run in runMode
	flag.Parse()
	log.SetPrefix("ascsbench: ")
	log.SetFlags(0)

	report := Report{
		Env: EnvInfo{
			NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		},
		Notes: "single-thread sampling-phase hot path, tracked admitted-pair case; " +
			"legacy replays the pre-fusion per-offer hash sequence and is the before number, " +
			"fused/batch are the after numbers (batch pins the wave group to 1 — the scalar " +
			"batch loop); wave is the wave-pipelined group path (hash → touch/prefetch → " +
			"gather → gate/scatter); the *-decay arms run the same loop on an exponential-decay " +
			"(unbounded window) engine with one step advance per chunk so the lazy aging tick " +
			"is included — they must track their fixed arms within noise at 0 allocs/pair; " +
			"range_sweep compares batch vs wave from cache-resident to DRAM-resident " +
			"tables (working set scaled with the range) — the miss-bound regime is where the wave " +
			"pipeline's overlapped loads pay; group hashing runs the vectorized slot-fill kernel " +
			"when env.cpu_features lists avx2",
	}
	report.Env.CPUModel, report.Env.CPUCache = readCPUInfo()
	report.Env.Caches = readSysCaches()
	report.Env.CPUFeatures = hashing.CPUFeatures()
	report.Config.Tables = *tables
	report.Config.Range = *rng
	report.Config.WorkingSet = *nkeys
	report.Config.BatchChunk = *chunk
	report.Config.WaveGroup = countsketch.WaveGroup
	report.Config.BenchTime = benchtime.String()

	for _, engine := range strings.Split(*engines, ",") {
		engine = strings.TrimSpace(engine)
		for _, mode := range []string{"legacy", "percall", "fused", "batch", "batch-decay", "wave", "wave-decay"} {
			res := runMode(engine, mode, *tables, *rng, *nkeys, *chunk, *benchtime)
			log.Printf("%-4s %-10s %2d hash phase(s): %7.1f ns/pair (%.3e pairs/s, %.2f allocs/pair)",
				res.Engine, res.Mode, res.HashPhases, res.NsPerPair, res.PairsPerSec, res.AllocsPerPair)
			report.Results = append(report.Results, res)
		}
		base := findResult(report.Results, engine, "legacy")
		for _, mode := range []string{"fused", "batch", "batch-decay", "wave", "wave-decay"} {
			if r := findResult(report.Results, engine, mode); r != nil && base != nil && base.NsPerPair > 0 {
				report.Speedups = append(report.Speedups, SpeedupEntry{
					Engine: engine, Mode: mode, Baseline: "legacy",
					Speedup: base.NsPerPair / r.NsPerPair,
				})
			}
		}
	}
	for _, sp := range report.Speedups {
		log.Printf("%s %s vs %s: %.2fx", sp.Engine, sp.Mode, sp.Baseline, sp.Speedup)
	}

	if *sweepRanges != "" {
		for _, tok := range strings.Split(*sweepRanges, ",") {
			tok = strings.TrimSpace(tok)
			if tok == "" {
				continue
			}
			pow, err := strconv.Atoi(tok)
			if err != nil || pow < 8 || pow > 28 {
				log.Fatalf("bad -sweepranges entry %q (want log2 range in [8,28])", tok)
			}
			r := 1 << pow
			// Scale the working set with the table so large ranges are
			// genuinely miss-bound: a fixed 1024-key set would touch a
			// few hundred KB of a 160 MB table and measure the cache,
			// not DRAM.
			wkeys := r / 4
			if wkeys < 1024 {
				wkeys = 1024
			}
			if wkeys > 1<<20 {
				wkeys = 1 << 20
			}
			pt := SweepPoint{
				RangeLog2:    pow,
				Range:        r,
				WorkingSet:   wkeys,
				TableBytes:   int64(*tables) * int64(r) * 8,
				TouchedBytes: int64(*tables) * int64(wkeys) * 8,
			}
			for _, mode := range []string{"batch", "wave"} {
				res := runMode(*sweepEngine, mode, *tables, r, wkeys, *chunk, *benchtime)
				log.Printf("sweep R=2^%-2d keys=%-8d %-8s: %7.1f ns/pair (%.3e pairs/s, %.2f allocs/pair)",
					pow, wkeys, res.Mode, res.NsPerPair, res.PairsPerSec, res.AllocsPerPair)
				pt.Results = append(pt.Results, res)
			}
			b := findResult(pt.Results, *sweepEngine, "batch")
			if w := findResult(pt.Results, *sweepEngine, "wave"); b != nil && w != nil && w.NsPerPair > 0 {
				pt.WaveSpeedup = b.NsPerPair / w.NsPerPair
				log.Printf("sweep R=2^%-2d wave vs batch: %.2fx", pow, pt.WaveSpeedup)
			}
			report.RangeSweep = append(report.RangeSweep, pt)
		}
	}

	if *foldSweep > 0 {
		for _, engine := range strings.Split(*engines, ",") {
			engine = strings.TrimSpace(engine)
			report.FoldSweep = append(report.FoldSweep,
				runFoldSweep(engine, *tables, *rng, *nkeys, *foldSweep)...)
		}
	}

	if *walSweep {
		report.WALSweep = runWALSweep(*tables, *rng, *benchtime)
	}

	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	log.Printf("report written to %s", *out)
}

func findResult(rs []Result, engine, mode string) *Result {
	for i := range rs {
		if rs[i].Engine == engine && rs[i].Mode == mode {
			return &rs[i]
		}
	}
	return nil
}

// benchT is the synthetic stream horizon: long enough that the primed
// working set never exhausts it. In the decayed arms it doubles as the
// effective window (λ = 1 − 1/benchT), so the per-step aging is that of
// a realistic long-window deployment.
const benchT = 1 << 30

// newEngine builds the measured engine in its sampling phase with nkeys
// primed, admitted keys. decayed selects the unbounded (λ-weighted)
// construction.
func newEngine(engine string, tables, rng, nkeys int, decayed bool) sketchapi.Engine {
	cfg := countsketch.Config{Tables: tables, Range: rng, Seed: 1}
	lambda := 1 - 1.0/benchT
	var eng sketchapi.Engine
	switch engine {
	case "ascs":
		hp := core.Hyperparams{T0: 1, Theta: 0, Tau0: 1e-12, T: benchT}
		var (
			e   *core.Engine
			err error
		)
		if decayed {
			e, err = core.NewEngineDecayed(cfg, hp, true, lambda)
		} else {
			e, err = core.NewEngine(cfg, hp, true)
		}
		if err != nil {
			log.Fatal(err)
		}
		eng = e
	case "cs":
		var (
			ms  *countsketch.MeanSketch
			err error
		)
		if decayed {
			ms, err = countsketch.NewMeanSketchDecayed(cfg, benchT, lambda)
		} else {
			ms, err = countsketch.NewMeanSketch(cfg, benchT)
		}
		if err != nil {
			log.Fatal(err)
		}
		eng = ms
	default:
		log.Fatalf("unknown engine %q (want ascs or cs)", engine)
	}
	eng.BeginStep(1)
	for k := 0; k < nkeys; k++ {
		eng.Offer(uint64(k), 1e6)
	}
	eng.BeginStep(2) // past T0: ASCS samples; primed keys clear τ
	return eng
}

func runMode(engine, mode string, tables, rng, nkeys, chunk int, benchtime time.Duration) Result {
	hashPhases := map[string]int{
		"legacy": 3, "percall": 2, "fused": 1,
		"batch": 1, "batch-decay": 1, "wave": 1, "wave-decay": 1,
	}[mode]
	if engine == "cs" && mode == "legacy" {
		hashPhases = 2 // CS had no gate estimate: Add + tracker Estimate
	}
	var fn func(b *testing.B)
	switch mode {
	case "legacy":
		fn = func(b *testing.B) { benchLegacy(b, engine, tables, rng, nkeys) }
	case "percall":
		fn = func(b *testing.B) { benchPerCall(b, engine, tables, rng, nkeys) }
	case "fused":
		fn = func(b *testing.B) { benchFused(b, engine, tables, rng, nkeys) }
	case "batch":
		fn = func(b *testing.B) { benchBatch(b, engine, tables, rng, nkeys, chunk, false, 1) }
	case "batch-decay":
		fn = func(b *testing.B) { benchBatch(b, engine, tables, rng, nkeys, chunk, true, 1) }
	case "wave":
		fn = func(b *testing.B) { benchBatch(b, engine, tables, rng, nkeys, chunk, false, 0) }
	case "wave-decay":
		fn = func(b *testing.B) { benchBatch(b, engine, tables, rng, nkeys, chunk, true, 0) }
	}
	prev := flag.Lookup("test.benchtime")
	if prev != nil {
		_ = prev.Value.Set(benchtime.String())
	}
	r := testing.Benchmark(fn)
	ns := float64(r.T.Nanoseconds()) / float64(r.N)
	res := Result{
		Engine: engine, Mode: mode, HashPhases: hashPhases,
		NsPerPair:     ns,
		AllocsPerPair: float64(r.AllocsPerOp()),
		BytesPerPair:  float64(r.AllocedBytesPerOp()),
	}
	if ns > 0 {
		res.PairsPerSec = 1e9 / ns
	}
	return res
}

// benchLegacy replays the exact pre-fusion per-offer hash sequence on
// the raw count sketch: gate Estimate (ASCS only), Add, and the tracker
// Estimate that covstream used to issue separately.
func benchLegacy(b *testing.B, engine string, tables, rng, nkeys int) {
	sk := countsketch.MustNew(countsketch.Config{Tables: tables, Range: rng, Seed: 1})
	const invT, tau = 1.0 / benchT, 1e-12
	for k := 0; k < nkeys; k++ {
		sk.Add(uint64(k), 1e6*invT)
	}
	gated := engine == "ascs"
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		key := uint64(i % nkeys)
		if gated {
			if est := sk.Estimate(key); math.Abs(est) >= tau {
				sk.Add(key, 1e6*invT)
			}
		} else {
			sk.Add(key, 1e6*invT)
		}
		sink += sk.Estimate(key) // the tracker's separate estimate
	}
	_ = sink
}

func benchPerCall(b *testing.B, engine string, tables, rng, nkeys int) {
	eng := newEngine(engine, tables, rng, nkeys, false)
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		key := uint64(i % nkeys)
		eng.Offer(key, 1e6)
		sink += eng.Estimate(key)
	}
	_ = sink
}

func benchFused(b *testing.B, engine string, tables, rng, nkeys int) {
	eng := newEngine(engine, tables, rng, nkeys, false)
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		est, _ := eng.OfferEstimate(uint64(i%nkeys), 1e6)
		sink += est
	}
	_ = sink
}

// benchBatch measures OfferPairs with the given wave group: 1 pins the
// scalar batch loop ("batch"), 0 keeps the engine's default wave group
// ("wave").
func benchBatch(b *testing.B, engine string, tables, rng, nkeys, chunk int, decayed bool, group int) {
	eng := newEngine(engine, tables, rng, nkeys, decayed)
	if group > 0 {
		eng.SetWaveGroup(group)
	}
	if chunk > nkeys {
		chunk = nkeys
	}
	// The chunks walk the full primed working set so the cache footprint
	// matches the legacy/percall/fused arms exactly.
	keys := make([]uint64, nkeys)
	xs := make([]float64, nkeys)
	ests := make([]float64, nkeys)
	for i := range keys {
		keys[i] = uint64(i)
		xs[i] = 1e6
	}
	b.ReportAllocs()
	b.ResetTimer()
	pos, step := 0, 2
	for lo := 0; lo < b.N; lo += chunk {
		n := chunk
		if lo+n > b.N {
			n = b.N - lo
		}
		if pos+n > nkeys {
			pos = 0
		}
		if decayed {
			// One chunk stands for one sample's pair run: advancing the
			// step charges the lazy decay tick (sketch scale bump,
			// N_eff update) to the measured loop.
			step++
			eng.BeginStep(step)
		}
		eng.OfferPairs(keys[pos:pos+n], xs[pos:pos+n], ests[pos:pos+n])
		pos += n
	}
}

// runFoldSweep folds one engine level by level, recording the
// serialized snapshot size and the RMS estimate deviation versus the
// engine's own unfolded estimates. The stream carries varied magnitudes
// (not the uniform priming constant) so fold collisions have real
// signal to perturb; the reference estimates are taken from the very
// engine being folded, so the deviation isolates the fold's collision
// noise from the sketch's level-0 error.
func runFoldSweep(engine string, tables, rng, nkeys, maxLevel int) []FoldPoint {
	eng := newEngine(engine, tables, rng, nkeys, false)
	sm := hashing.NewSplitMix64(9)
	const chunk = 1 << 10
	keys := make([]uint64, chunk)
	xs := make([]float64, chunk)
	for off := 0; off < 8*nkeys; off += chunk {
		for i := range keys {
			r := sm.Next()
			keys[i] = r % uint64(nkeys)
			xs[i] = float64(int64((r>>32)%2001) - 1000)
		}
		eng.OfferPairs(keys, xs, nil)
	}

	ref := make([]float64, nkeys)
	var energy float64
	for k := range ref {
		ref[k] = eng.Estimate(uint64(k))
		energy += ref[k] * ref[k]
	}
	signal := math.Sqrt(energy / float64(nkeys))

	size := func() int {
		var buf bytes.Buffer
		if _, err := eng.WriteTo(&buf); err != nil {
			log.Fatal(err)
		}
		return buf.Len()
	}
	if max := eng.MaxFoldLevels(); maxLevel > max {
		maxLevel = max
	}
	full := size()
	pts := []FoldPoint{{Engine: engine, Level: 0, Bytes: full, Shrink: 1, SignalRMS: signal}}
	for level := 1; level <= maxLevel; level++ {
		if err := eng.Fold(1); err != nil {
			log.Fatal(err)
		}
		var sum float64
		for k, want := range ref {
			d := eng.Estimate(uint64(k)) - want
			sum += d * d
		}
		b := size()
		pt := FoldPoint{
			Engine: engine, Level: level, Bytes: b,
			Shrink:       float64(full) / float64(b),
			RMSDeviation: math.Sqrt(sum / float64(nkeys)),
			SignalRMS:    signal,
		}
		log.Printf("foldsweep %-4s L%d: %8d B (%5.2fx smaller), rms fold deviation %.4g (signal rms %.4g)",
			engine, level, pt.Bytes, pt.Shrink, pt.RMSDeviation, pt.SignalRMS)
		pts = append(pts, pt)
	}
	return pts
}

// runWALSweep measures the manager-level ingest path — routing, worker
// apply, and the WAL tee — under each durability policy, against the
// same manager with no WAL at all. The tee itself is a value send off
// the hot path, so "off" prices the encode+append work of the log
// goroutine stealing cycles, "interval" adds a timer fsync, and "batch"
// charges an fsync per commit group: the full RPO-vs-throughput menu.
func runWALSweep(tables, rng int, benchtime time.Duration) []WALPoint {
	const (
		feat  = 16 // features per sample: feat·(feat−1)/2 pairs each
		batch = 64 // samples per Ingest call
	)
	pairsPerCall := batch * feat * (feat - 1) / 2
	samples := make([]stream.Sample, batch)
	for i := range samples {
		row := make([]float64, feat)
		for j := range row {
			row[j] = float64((i*feat+j)%13) - 6
		}
		samples[i] = stream.FromDense(row)
	}

	var pts []WALPoint
	for _, sync := range []string{"none", "off", "interval", "batch"} {
		cfg := shard.Config{
			Dim: feat, Shards: 2,
			Engine: shard.EngineSpec{
				Kind:   shard.KindCS,
				Sketch: countsketch.Config{Tables: tables, Range: rng, Seed: 1},
				T:      1 << 30,
			},
		}
		dir := ""
		if sync != "none" {
			d, err := os.MkdirTemp("", "ascsbench-wal-*")
			if err != nil {
				log.Fatal(err)
			}
			dir = d
			cfg.WALDir, cfg.WALSync = dir, sync
		}
		mgr, err := shard.New(cfg)
		if err != nil {
			log.Fatal(err)
		}
		if prev := flag.Lookup("test.benchtime"); prev != nil {
			_ = prev.Value.Set(benchtime.String())
		}
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := mgr.Ingest(samples); err != nil {
					b.Fatal(err)
				}
			}
			// The flush barrier keeps queued batches from leaking out of
			// the timed window — the number is applied pairs, not enqueues.
			if err := mgr.Flush(); err != nil {
				b.Fatal(err)
			}
		})
		pt := WALPoint{
			Sync:          sync,
			NsPerPair:     float64(r.T.Nanoseconds()) / float64(r.N*pairsPerCall),
			AllocsPerPair: float64(r.AllocsPerOp()) / float64(pairsPerCall),
		}
		if pt.NsPerPair > 0 {
			pt.PairsPerSec = 1e9 / pt.NsPerPair
		}
		if ws := mgr.WALStats(); ws != nil {
			pt.WALBytes = ws.AppendedBytes
			pt.WALFsyncs = ws.Fsyncs
		}
		if err := mgr.Close(); err != nil {
			log.Fatal(err)
		}
		if dir != "" {
			os.RemoveAll(dir)
		}
		if len(pts) > 0 {
			pt.OverheadNs = pt.NsPerPair - pts[0].NsPerPair
		}
		log.Printf("walsweep sync=%-8s: %7.1f ns/pair (%.3e pairs/s, %+.1f ns vs none, %d fsyncs)",
			pt.Sync, pt.NsPerPair, pt.PairsPerSec, pt.OverheadNs, pt.WALFsyncs)
		pts = append(pts, pt)
	}
	return pts
}
