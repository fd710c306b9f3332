package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/countsketch"
	"repro/internal/pairs"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/stream"
	"repro/internal/topk"
)

// Deployment constants the ladder shares with ascsd's defaults, so the
// rungs build the engine the daemon builds.
const (
	daemonTables = 5
	daemonMem    = 1_000_000
	daemonSeed   = 1
	daemonAlpha  = 0.005
	daemonTrack  = 1 << 14
)

// rung is one cumulative layer of the ladder: the stream's post-warm-up
// samples pushed through one more public entry point than the rung
// below it. A rung's cost is the CPU time of every thread of the
// process, so work a layer hands to another goroutine (the shard
// worker, the group commit) is charged to it rather than overlapping
// with the caller on a second core; that is what makes the rungs add
// up. Wall time is kept for the record.
type rung struct {
	name   string
	pairs  int
	cost   cost
	allocs uint64
}

func (r rung) nsPerPair() float64     { return float64(r.cost.cpu) / float64(r.pairs) }
func (r rung) wallPerPair() float64   { return float64(r.cost.wall) / float64(r.pairs) }
func (r rung) allocsPerPair() float64 { return float64(r.allocs) / float64(r.pairs) }

// cost is one stretch of work measured as wall time and as process CPU
// time.
type cost struct{ wall, cpu time.Duration }

func (c *cost) add(o cost) { c.wall += o.wall; c.cpu += o.cpu }

// stopwatch marks the start of a stretch of work.
type stopwatch struct {
	wall time.Time
	cpu  time.Duration
}

func startWatch() stopwatch { return stopwatch{wall: time.Now(), cpu: processCPU()} }

func (s stopwatch) stop() cost {
	return cost{wall: time.Since(s.wall), cpu: processCPU() - s.cpu}
}

// processCPU returns the user plus system time of all the process's
// threads so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // only EFAULT/EINVAL, both bugs
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// ladderResult is everything the ladder measures.
type ladderResult struct {
	rungs [5]rung
	// fit and autospec split the warm-up (zero without one).
	fit, autospec time.Duration
	// trackerTop and topkt are medians over repeated top-k reads of the
	// filled single-shard state; topktTrace holds the QueryTrace of the
	// median TopKT call.
	trackerTop, topkt time.Duration
	topktTrace        *shard.QueryTrace
	// WAL rung accounting and the replay of its log.
	walRecords, walFsyncs, walBytes uint64
	replay                          time.Duration
	replayOps                       uint64
}

// rowEngine is the slice of the engine contract the first two rungs
// call: what the shard worker calls per row run.
type rowEngine interface {
	BeginStep(t int)
	OfferRow(rowBase uint64, partners []uint64, x []float64, ests []float64)
	Estimate(key uint64) float64
}

// runBuf holds the row runs of a few samples, expanded exactly as the
// shard router expands them (row base + partner ids, pre-multiplied
// increments), so the first two rungs time the engine alone.
type runBuf struct {
	hdrs []runHdr
	prt  []uint64
	xs   []float64
}

type runHdr struct {
	base   uint64
	t      int
	lo, hi int
}

// fill expands samples (global steps t0, t0+1, ...), scaled by invStd
// when it is non-nil. It reuses the buffers' capacity.
func (b *runBuf) fill(samples []stream.Sample, t0, dim int, invStd []float64) {
	b.hdrs, b.prt, b.xs = b.hdrs[:0], b.prt[:0], b.xs[:0]
	var val []float64
	for k, s := range samples {
		val = append(val[:0], s.Val...)
		if invStd != nil {
			for i, ix := range s.Idx {
				val[i] *= invStd[ix]
			}
		}
		for i := 0; i+1 < len(s.Idx); i++ {
			lo := len(b.prt)
			for j := i + 1; j < len(s.Idx); j++ {
				b.prt = append(b.prt, uint64(s.Idx[j]))
				b.xs = append(b.xs, val[i]*val[j])
			}
			b.hdrs = append(b.hdrs, runHdr{base: uint64(pairs.RowBase(s.Idx[i], dim)), t: t0 + k, lo: lo, hi: len(b.prt)})
		}
	}
}

// ladderConfig is the single-shard deployment the ladder models: the
// workload's engine with the whole sketch budget on one shard.
type ladderConfig struct {
	w       workload
	ws      *workStream
	horizon int
	// warm and body are the set-up prefix (warm-up or log prefix) and
	// the timed samples; their request bodies are warmReqs and bodyReqs.
	warm, body         []stream.Sample
	warmReqs, bodyReqs []ingestReq
	dir                string
}

// daemonSketch is the sketch ascsd builds for a one-shard deployment
// under the default -mem, -tables and -seed.
func daemonSketch() countsketch.Config {
	return countsketch.Config{Tables: daemonTables, Range: daemonMem / daemonTables, Seed: daemonSeed}
}

func (c ladderConfig) serveOptions() shard.ServeOptions {
	kind := shard.KindCS
	if c.w.engine == "ascs" {
		kind = shard.KindASCS
	}
	return shard.ServeOptions{
		Dim: c.ws.dim, Samples: c.horizon, Shards: 1, Kind: kind,
		Tables: daemonTables, MemoryFloats: daemonMem, Seed: daemonSeed,
		Alpha: daemonAlpha, Standardize: !c.w.dense, Warmup: c.w.warmup,
		TrackCandidates: daemonTrack,
	}
}

func (c ladderConfig) bodyPairs() int {
	n := 0
	for _, r := range c.bodyReqs {
		n += r.pairs
	}
	return n
}

// ladderRounds is how many times each rung runs. The ladder reports
// each rung's median pass, so one disturbed pass does not skew the
// difference between neighbouring rungs.
const ladderRounds = 3

// ladder carries the state the rungs share: the warm-up's scaling and
// engine spec, and the result the last round's extras fill in.
type ladder struct {
	c      ladderConfig
	res    *ladderResult
	invStd []float64
	spec   shard.EngineSpec
}

// runLadder measures the warm-up split, then the five rungs in
// ladderRounds round-robin passes; the last pass also times the query
// side and replays the WAL. tr receives one span per rung.
func runLadder(c ladderConfig, tr *tracer) (*ladderResult, error) {
	l := &ladder{c: c, res: &ladderResult{}}
	if err := l.warmup(); err != nil {
		return nil, err
	}
	steps := []func(last bool) (rung, error){l.engine, l.tracker, l.shard, l.wal, l.server}
	var runs [5][]rung
	for round := 0; round < ladderRounds; round++ {
		for i, step := range steps {
			r, err := step(round == ladderRounds-1)
			if err != nil {
				return nil, err
			}
			runs[i] = append(runs[i], r)
		}
	}
	res := l.res
	for i, rs := range runs {
		ds := make([]time.Duration, len(rs))
		for j, r := range rs {
			ds[j] = r.cost.cpu
		}
		res.rungs[i] = rs[medianIndex(ds)]
	}
	if tr != nil {
		at := tr.at(time.Now())
		for _, r := range res.rungs {
			tr.add(span{Name: "ladder." + r.name, Workload: c.w.name, Start: at, End: at + int64(r.cost.wall)})
			at += int64(r.cost.wall)
		}
		id := tr.add(span{Name: "ladder.topkt", Workload: c.w.name, Start: at, End: at + int64(res.topkt)})
		qt := res.topktTrace
		for _, p := range []struct {
			name string
			d    time.Duration
		}{{"queue_wait", qt.QueueWait}, {"shard_apply", qt.Apply}, {"merge", qt.Merge}} {
			if p.d > 0 {
				tr.add(span{Parent: id, Name: p.name, Workload: c.w.name, Start: at, End: at + int64(p.d)})
				at += int64(p.d)
			}
		}
		tr.add(span{Name: "ladder.tracker_top", Workload: c.w.name, Start: at, End: at + int64(res.trackerTop)})
	}
	return res, nil
}

// warmup reproduces, step by step, the warm-up the manager runs inside
// its warm-up-completing ingest call: the standardizer fit, then the
// AutoSpec solve on the scaled prefix. A deployment without a warm-up
// skips both and runs the daemon's plain CS shard; the ladder still
// times both steps over its body samples, so each layer's cost on the
// workload's stream is on record.
func (l *ladder) warmup() error {
	c := l.c
	prefix := c.warm
	if c.w.warmup == 0 {
		prefix = c.body
	}
	start := time.Now()
	st, err := stream.NewStandardizer(stream.NewSliceSource(prefix, c.ws.dim), len(prefix), false)
	if err != nil {
		return err
	}
	invStd := st.InvStds()
	l.res.fit = time.Since(start)
	scaled := make([]stream.Sample, len(prefix))
	for i, s := range prefix {
		v := make([]float64, len(s.Val))
		for j, ix := range s.Idx {
			v[j] = s.Val[j] * invStd[ix]
		}
		scaled[i] = stream.Sample{Idx: s.Idx, Val: v}
	}
	start = time.Now()
	spec, err := shard.AutoSpec(scaled, c.ws.dim, 1, c.horizon, daemonSketch(), daemonAlpha)
	l.res.autospec = time.Since(start)
	if err != nil {
		return err
	}
	l.spec = shard.EngineSpec{Kind: shard.KindCS, Sketch: daemonSketch(), T: c.horizon}
	if c.w.warmup > 0 {
		l.invStd, l.spec = invStd, spec
	}
	return nil
}

// offer runs rung 1 (tk nil) or rung 2 on a fresh engine.
func (l *ladder) offer(name string, tk *topk.Tracker) (rowEngine, rung, error) {
	var e rowEngine
	var err error
	if l.spec.Kind == shard.KindASCS {
		e, err = core.NewEngine(l.spec.Sketch, l.spec.Schedule, true)
	} else {
		e, err = countsketch.NewMeanSketch(l.spec.Sketch, l.spec.T)
	}
	if err != nil {
		return nil, rung{}, err
	}
	c := l.c
	offerRows(e, tk, c.warm, 1, c.ws.dim, l.invStd, nil)
	r := rung{name: name, pairs: c.bodyPairs()}
	offerRows(e, tk, c.body, len(c.warm)+1, c.ws.dim, l.invStd, &r)
	return e, r, nil
}

// engine is rung 1: the engine's OfferRow alone.
func (l *ladder) engine(bool) (rung, error) {
	_, r, err := l.offer("engine", nil)
	return r, err
}

// tracker is rung 2: rung 1 plus topk.Tracker.Offer per pair. The last
// pass times Tracker.Top on the filled tracker.
func (l *ladder) tracker(last bool) (rung, error) {
	tk := topk.NewTracker(daemonTrack)
	e, r, err := l.offer("tracker", tk)
	if err == nil && last {
		rescore := func(key uint64) float64 { return math.Abs(e.Estimate(key)) }
		l.res.trackerTop = medianOf(21, func() { tk.Top(topK, rescore) })
	}
	return r, err
}

// ingest drives m the way the HTTP handler does, one request's samples
// per IngestCtx call.
func (l *ladder) ingest(m *shard.Manager, reqs []ingestReq) error {
	for _, rq := range reqs {
		if _, _, err := m.IngestCtx(context.Background(), l.c.ws.samples[rq.lo:rq.hi]); err != nil {
			return err
		}
	}
	return nil
}

// warmManager starts a single-shard manager with options o and feeds it
// the warm-up prefix, untimed.
func (l *ladder) warmManager(o shard.ServeOptions) (*shard.Manager, error) {
	m, err := shard.NewFromOptions(o)
	if err != nil {
		return nil, err
	}
	if err := l.ingest(m, l.c.warmReqs); err == nil {
		err = m.Flush()
	}
	if err != nil {
		m.Close()
		return nil, err
	}
	return m, nil
}

// shard is rung 3: shard.Manager.IngestCtx plus Flush (validation,
// routing into row batches, freelists, the channel, the worker loop).
func (l *ladder) shard(bool) (rung, error) {
	m, err := l.warmManager(l.c.serveOptions())
	if err != nil {
		return rung{}, err
	}
	return measureRungClose("shard", l.c.bodyPairs(), m, func() error { return l.ingest(m, l.c.bodyReqs) })
}

// wal is rung 4: rung 3 with the WAL armed (sync=batch, as durable-cs
// runs it). A deployment with a warm-up cannot replay a log into a
// manager that is still warming, so it snapshots after the prefix and
// recovers the way ascsd -restore does. The last pass records the log
// counters and times the replay.
func (l *ladder) wal(last bool) (rung, error) {
	c := l.c
	walDir := filepath.Join(c.dir, "ladder-wal")
	snapDir := filepath.Join(c.dir, "ladder-snap")
	defer os.RemoveAll(walDir)
	defer os.RemoveAll(snapDir)
	o := c.serveOptions()
	o.WALDir, o.WALSync = walDir, "batch"
	m, err := l.warmManager(o)
	if err != nil {
		return rung{}, err
	}
	if c.w.warmup > 0 {
		if err := m.Snapshot(snapDir); err != nil {
			m.Close()
			return rung{}, err
		}
	}
	// Count only the body's records: the warm-up prefix is logged too.
	base := walQuiet(m)
	r, err := measureRungClose("wal", c.bodyPairs(), m, func() error { return l.ingest(m, c.bodyReqs) })
	if err != nil || !last {
		return r, err
	}
	ws := m.WALStats()
	l.res.walRecords = ws.Records - base.Records
	l.res.walFsyncs = ws.Fsyncs - base.Fsyncs
	l.res.walBytes = ws.AppendedBytes - base.AppendedBytes
	var rec *shard.Manager
	if c.w.warmup > 0 {
		rec, err = shard.RestoreWith(snapDir, shard.RestoreOverrides{WALDir: walDir, WALSync: "batch"})
	} else {
		rec, err = shard.NewFromOptions(o)
	}
	if err != nil {
		return r, fmt.Errorf("replaying the ladder WAL: %w", err)
	}
	if ws := rec.WALStats(); ws != nil {
		l.res.replay = time.Duration(ws.Recovery.DurationSeconds * float64(time.Second))
		l.res.replayOps = ws.Recovery.ReplayedOps
	}
	return r, rec.Close()
}

// server is rung 5: the HTTP handler tree on the pre-encoded bodies
// through an httptest recorder (JSON decode, validation, handler; no
// socket). The last pass times Manager.TopKT with a QueryTrace on the
// filled shard before closing it.
func (l *ladder) server(last bool) (rung, error) {
	c := l.c
	m, err := shard.NewFromOptions(c.serveOptions())
	if err != nil {
		return rung{}, err
	}
	srv := server.New(m, server.Options{})
	h := srv.Handler()
	serve := func(reqs []ingestReq) error {
		for _, rq := range reqs {
			rr := httptest.NewRecorder()
			h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(rq.body)))
			if rr.Code != http.StatusOK {
				return fmt.Errorf("ladder ingest: status %d: %s", rr.Code, rr.Body.String())
			}
		}
		return nil
	}
	if err := serve(c.warmReqs); err == nil {
		err = m.Flush()
	}
	if err != nil {
		srv.Close()
		return rung{}, err
	}
	r, err := measureRung("server", c.bodyPairs(), m, func() error { return serve(c.bodyReqs) })
	if err != nil {
		srv.Close()
		return r, err
	}
	if last {
		var traces []*shard.QueryTrace
		var durs []time.Duration
		for i := 0; i < 21; i++ {
			qt := &shard.QueryTrace{}
			start := time.Now()
			if _, err := m.TopKT(context.Background(), topK, "", true, qt); err != nil {
				srv.Close()
				return r, err
			}
			durs = append(durs, time.Since(start))
			traces = append(traces, qt)
		}
		mid := medianIndex(durs)
		l.res.topkt, l.res.topktTrace = durs[mid], traces[mid]
	}
	w := startWatch()
	err = srv.Close()
	r.cost.add(w.stop())
	return r, err
}

// offerRows feeds samples into the engine (and tracker) the way the
// shard worker applies a row batch. With r non-nil only the engine and
// tracker calls are measured and their allocations counted; expansion
// runs between the measured stretches, reusing its buffers.
func offerRows(e rowEngine, tk *topk.Tracker, samples []stream.Sample, t0, dim int, invStd []float64, r *rung) {
	const chunk = 64
	var buf runBuf
	var ests []float64
	last := 0
	var ms runtime.MemStats
	var mallocs uint64
	if r != nil {
		runtime.ReadMemStats(&ms)
		mallocs = ms.Mallocs
	}
	for lo := 0; lo < len(samples); lo += chunk {
		hi := min(lo+chunk, len(samples))
		buf.fill(samples[lo:hi], t0+lo, dim, invStd)
		w := startWatch()
		for _, h := range buf.hdrs {
			if h.t > last {
				e.BeginStep(h.t)
				last = h.t
			}
			n := h.hi - h.lo
			if cap(ests) < n {
				ests = make([]float64, n)
			}
			prt, es := buf.prt[h.lo:h.hi], ests[:n]
			e.OfferRow(h.base, prt, buf.xs[h.lo:h.hi], es)
			if tk != nil {
				for i, p := range prt {
					tk.Offer(h.base+p, math.Abs(es[i]))
				}
			}
		}
		if r != nil {
			r.cost.add(w.stop())
		}
	}
	if r != nil {
		runtime.ReadMemStats(&ms)
		r.allocs = ms.Mallocs - mallocs
	}
}

// measureRung measures fn plus the Flush barrier that makes every
// routed batch applied, counting allocations process-wide (the shard
// workers allocate on their own goroutines).
func measureRung(name string, pairs int, m *shard.Manager, fn func() error) (rung, error) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	w := startWatch()
	if err := fn(); err != nil {
		return rung{}, err
	}
	if err := m.Flush(); err != nil {
		return rung{}, err
	}
	r := rung{name: name, pairs: pairs, cost: w.stop()}
	runtime.ReadMemStats(&ms)
	r.allocs = ms.Mallocs - mallocs
	return r, nil
}

// measureRungClose is measureRung followed by a measured Close, which
// drains the workers and, with a WAL, the group-commit log.
func measureRungClose(name string, pairs int, m *shard.Manager, fn func() error) (rung, error) {
	r, err := measureRung(name, pairs, m, fn)
	if err != nil {
		m.Close()
		return r, err
	}
	w := startWatch()
	if err := m.Close(); err != nil {
		return r, err
	}
	r.cost.add(w.stop())
	return r, nil
}

// walQuiet flushes m and waits until the group-commit log has appended
// every teed batch, then returns its stats.
func walQuiet(m *shard.Manager) shard.WALStats {
	m.Flush()
	for {
		ws := m.WALStats()
		if ws.Records >= ws.LastSeq {
			return *ws
		}
		time.Sleep(time.Millisecond)
	}
}

// medianOf runs fn n times and returns the median duration.
func medianOf(n int, fn func()) time.Duration {
	ds := make([]time.Duration, n)
	for i := range ds {
		start := time.Now()
		fn()
		ds[i] = time.Since(start)
	}
	return ds[medianIndex(ds)]
}

// medianIndex returns the index of the median of ds.
func medianIndex(ds []time.Duration) int {
	idx := make([]int, len(ds))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return ds[idx[a]] < ds[idx[b]] })
	return idx[len(idx)/2]
}
