package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/server"
)

// runner executes workloads against freshly built ascsd children.
type runner struct {
	cfg    config
	bin    string
	work   string
	client *http.Client
	// tr is non-nil in a -trace run.
	tr *tracer
}

// workData is a workload's generated input: the stream, the set-up
// prefix requests (warm-up or log prefix) and the measured-phase request
// pool.
type workData struct {
	ws      *workStream
	horizon int
	warm    []ingestReq
	reqs    []ingestReq
}

// prepare generates and encodes the workload's input before any daemon
// boots, so generation is never timed.
func (r *runner) prepare(w workload) (*workData, error) {
	ws, err := genStream(w, w.poolSize(r.cfg.seconds), r.cfg.seed)
	if err != nil {
		return nil, err
	}
	d := &workData{ws: ws, horizon: len(ws.samples)}
	if d.warm, err = encodeRequests(ws, 0, w.setupSamples(), w.batch); err != nil {
		return nil, err
	}
	if d.reqs, err = encodeRequests(ws, w.setupSamples(), len(ws.samples), w.batch); err != nil {
		return nil, err
	}
	if !w.dense {
		// Past the ladder's stretch the sparse pool lives on only as
		// request bodies; the dense reference check needs every sample.
		ws.samples = slices.Clone(ws.samples[:min(len(ws.samples), w.setupSamples()+w.ladderSamples())])
	}
	return d, nil
}

// phase is one pass of a workload through one daemon.
type phase struct {
	// vm is the phase's clock of the time the VM ran; every end-to-end
	// timing is read on it.
	vm *vmClock
	// setup holds each set-up: boot to ready plus the set-up prefix, or
	// on durable-cs each SIGKILL restart to ready.
	setup []interval
	// warmupCall is the first ingest request answered warm (the one that
	// completed the warm-up, or the first at all without one).
	warmupCall time.Duration
	ingest     []call
	queries    []call
	// start and wall are the measured phase: first send to the closing
	// barrier; cpu is the daemon's CPU time (all threads) over the same
	// stretch.
	start     time.Time
	wall, cpu time.Duration
	// rates holds the accepted pairs per second of each rateWindow, and
	// wallRates the same on the wall clock.
	rates, wallRates []float64
	pairs, samples   int
	precision        float64
	// rssMB is the median resident set sampled over the measured phase;
	// setupPeakMB and peakMB are the peaks through set-up and the run.
	rssMB, setupPeakMB, peakMB float64
	// pages are /metrics scrapes before the measured phase, after it,
	// and after the query probe (traced phases only).
	pages [3]*promPage
	// restartRecovery is ascsd's own recovery time per restart.
	restartRecovery []float64
	// poolExhausted reports a measured phase that used up the request
	// pool before its deadline (it then measured a shorter stretch).
	poolExhausted bool
	failures      []string
}

func (p *phase) fail(format string, args ...any) {
	p.failures = append(p.failures, fmt.Sprintf(format, args...))
}

// interval is a stretch of wall-clock time.
type interval struct{ from, to time.Time }

// rateWindow is the length of the windows ingest_pairs_per_s takes its
// median over: a burst of interference from outside the benchmark moves
// a few windows, not the median.
const rateWindow = 500 * time.Millisecond

// ingestRate returns the median over the measured phase's windows of
// the accepted pairs per second.
func (p *phase) ingestRate() float64 { return median(p.rates) }

// stolenFrac returns the share of the measured phase's wall time that
// the VM waited for a physical core.
func (p *phase) stolenFrac() float64 {
	return 1 - p.vm.seconds(p.start, p.start.Add(p.wall))/p.wall.Seconds()
}

// cpuPerPair returns the daemon's CPU nanoseconds per accepted pair
// over the measured phase (query work included on mixed-topk).
func (p *phase) cpuPerPair() float64 { return float64(p.cpu) / float64(p.pairs) }

// runWorkload runs one workload: untraced for the end-to-end metrics,
// or with -trace an untraced pass, a traced pass and the ladder.
func (r *runner) runWorkload(w workload) (*result, error) {
	data, err := r.prepare(w)
	if err != nil {
		return nil, err
	}
	res := &result{workload: w.name}
	if r.tr == nil {
		p, err := r.runPhase(w, data, false, w.setups)
		if err != nil {
			return nil, err
		}
		e2eMetrics(res, p, res.add)
		return res, nil
	}
	plain, err := r.runPhase(w, data, false, 1)
	if err != nil {
		return nil, err
	}
	traced, err := r.runPhase(w, data, true, 1)
	if err != nil {
		return nil, err
	}
	e2eMetrics(res, plain, res.addInfo)
	lad, err := runLadder(r.ladderConfig(w, data), r.tr)
	if err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	layerMetrics(res, w, plain, traced, lad, r.tr.of(w.name))
	return res, nil
}

// ladderConfig takes the ladder's stream from the front of the
// workload's pool: the set-up prefix, then ladder-sized body.
func (r *runner) ladderConfig(w workload, d *workData) ladderConfig {
	c := ladderConfig{w: w, ws: d.ws, horizon: d.horizon, warmReqs: d.warm, dir: r.work}
	limit := w.setupSamples() + w.ladderSamples()
	for _, rq := range d.reqs {
		if rq.hi > limit {
			break
		}
		c.bodyReqs = append(c.bodyReqs, rq)
	}
	c.warm = d.ws.samples[:w.setupSamples()]
	c.body = d.ws.samples[w.setupSamples():c.bodyReqs[len(c.bodyReqs)-1].hi]
	return c
}

// ladderSamples is the ladder's body length: a million pairs or more,
// short enough that a traced sparse run stays well inside its time
// limit.
func (w workload) ladderSamples() int {
	if w.dense {
		return 400
	}
	return 12_000
}

// reqID names a traced request; ascsd echoes it into its trace log.
func reqID(w workload, kind string, i int) string {
	return w.name + "-" + kind + "-" + strconv.Itoa(i)
}

// runPhase sets the workload's deployment up setups times, keeping the
// last (durable-cs boots once and times SIGKILL restarts instead), runs
// the measured phase and the query probe, and checks the served answers.
func (r *runner) runPhase(w workload, d *workData, traced bool, setups int) (*phase, error) {
	// Collect the bench's own garbage (the generated pool) now, so its GC
	// does not compete with the daemon for the cores mid-phase.
	runtime.GC()
	dir, err := os.MkdirTemp(r.work, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	args := w.daemonArgs(d.horizon)
	if w.wal {
		args = append(args, "-wal-dir", filepath.Join(dir, "wal"))
	}
	if traced {
		args = append(args, "-trace-every", "1")
	}
	p := &phase{vm: startVMClock()}
	defer p.vm.stop()
	var dmn *daemon
	defer func() {
		if dmn != nil {
			dmn.kill()
		}
	}()
	boots := setups
	if w.wal {
		// durable-cs times its restarts instead.
		boots = 1
	}
	// logs holds the log of every daemon the phase started.
	var logs []string
	for k := 0; k < boots; k++ {
		if dmn != nil {
			dmn.kill()
			r.client.CloseIdleConnections()
		}
		logPath := filepath.Join(dir, fmt.Sprintf("ascsd-boot%d.log", k))
		logs = append(logs, logPath)
		start := time.Now()
		if dmn, err = startDaemon(r.bin, args, logPath); err != nil {
			return nil, err
		}
		if err := dmn.waitReady(r.client, 0, w.shards, time.Minute); err != nil {
			return nil, err
		}
		for i, rq := range d.warm {
			t0 := time.Now()
			resp, code, err := post(r.client, dmn.base, rq.body, r.traceID(traced, w, "warm", i))
			if err != nil || code != http.StatusOK {
				return nil, fmt.Errorf("set-up request %d: status %d, %v", i, code, err)
			}
			r.clientSpan(traced, w, "client.warmup", reqID(w, "warm", i), t0, time.Now())
			if !resp.Warming && p.warmupCall == 0 {
				p.warmupCall = time.Since(t0)
			}
		}
		if st, code, err := getStats(r.client, dmn.base); err != nil || code != http.StatusOK || st.Manager.Warming {
			return nil, fmt.Errorf("after the set-up prefix: status %d, warming %v, %v", code, st.Manager.Warming, err)
		}
		if !w.wal {
			p.setup = append(p.setup, interval{start, time.Now()})
		}
	}
	if w.wal {
		if dmn, err = r.restarts(w, d, args, dir, dmn, setups, p, &logs); err != nil {
			return nil, err
		}
	}

	// The warm-up's transient allocations (the AutoSpec solve) set a
	// peak whose height depends on GC timing; server_rss_mb is the median
	// resident set of the measured phase, the peaks are info lines.
	if p.setupPeakMB, err = dmn.memMB("VmHWM"); err != nil {
		return nil, err
	}
	stopRSS := dmn.sampleRSS(100 * time.Millisecond)
	defer stopRSS()
	if traced {
		if p.pages[0], err = scrape(r.client, dmn.base); err != nil {
			return nil, err
		}
	}
	warmFlags := make([]bool, len(d.reqs))
	ingestDo := func(i int) bool {
		t0 := time.Now()
		resp, code, err := post(r.client, dmn.base, d.reqs[i].body, r.traceID(traced, w, "ingest", i))
		r.clientSpan(traced, w, "client.ingest", reqID(w, "ingest", i), t0, time.Now())
		warmFlags[i] = resp.Warming
		return err == nil && code == http.StatusOK && resp.Accepted == d.reqs[i].hi-d.reqs[i].lo
	}
	queryDo := func(i int) bool {
		t0 := time.Now()
		code, err := getJSON(r.client, dmn.base, topKPath, r.traceID(traced, w, "topk", i), nil)
		r.clientSpan(traced, w, "client.topk", reqID(w, "topk", i), t0, time.Now())
		return err == nil && code == http.StatusOK
	}
	cpu0, err := dmn.cpu()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	p.start = start
	deadline := start.Add(time.Duration(r.cfg.seconds * float64(time.Second)))
	if w.open {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.queries = openLoop(realClock{}, start, rateInterval(w.queryRate), deadline, 1<<30, queryDo)
		}()
		p.ingest = openLoop(realClock{}, start, rateInterval(w.ingestRate), deadline, len(d.reqs), ingestDo)
		wg.Wait()
	} else {
		p.ingest = closedLoop(2, len(d.reqs), deadline, ingestDo)
	}
	p.poolExhausted = len(p.ingest) == len(d.reqs)
	// Closing barrier: /v1/stats rides every shard FIFO, so the phase
	// ends when the last accepted batch has been applied.
	st, code, err := getStats(r.client, dmn.base)
	if err != nil || code != http.StatusOK {
		return nil, fmt.Errorf("closing barrier: status %d, %v", code, err)
	}
	p.wall = time.Since(start)
	p.rssMB = median(stopRSS())
	cpu1, err := dmn.cpu()
	if err != nil {
		return nil, err
	}
	p.cpu = cpu1 - cpu0
	for i, c := range p.ingest {
		if c.ok {
			p.samples += d.reqs[i].hi - d.reqs[i].lo
			p.pairs += d.reqs[i].pairs
			if p.warmupCall == 0 && !warmFlags[i] {
				p.warmupCall = c.latency()
			}
		}
	}
	// A run that used up its pool measured a shorter stretch.
	span := time.Duration(r.cfg.seconds * float64(time.Second))
	if n := len(p.ingest); n > 0 && p.poolExhausted {
		span = min(span, p.ingest[n-1].end.Sub(start))
	}
	if want := w.setupSamples() + p.samples; st.Manager.Step != want {
		p.fail("step %d after the measured phase, want %d (set-up prefix %d + accepted %d)", st.Manager.Step, want, w.setupSamples(), p.samples)
	}
	if traced {
		if p.pages[1], err = scrape(r.client, dmn.base); err != nil {
			return nil, err
		}
	}
	probed := 0
	if !w.open {
		ops := p.pairs
		for _, rq := range d.warm {
			ops += rq.pairs
		}
		if probed, err = r.probe(w, d, dmn, len(p.ingest), ops, p, queryDo); err != nil {
			return nil, err
		}
	}
	if traced {
		if p.pages[2], err = scrape(r.client, dmn.base); err != nil {
			return nil, err
		}
	}
	p.vm.stop()
	pairsOf := func(i int) float64 { return float64(d.reqs[i].pairs) }
	nWin := max(1, int(span/rateWindow))
	p.wallRates = windowRates(p.ingest, pairsOf, start, span, nWin, wallSeconds)
	// An open loop's rate is its schedule's; only a closed loop's rate
	// follows the time the VM ran.
	p.rates = p.wallRates
	if !w.open {
		p.rates = windowRates(p.ingest, pairsOf, start, span, nWin, p.vm.seconds)
	}

	var top server.TopKResponse
	if code, err := getJSON(r.client, dmn.base, topKPath, "", &top); err != nil || code != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/topk: status %d, %v", code, err)
	}
	p.precision = precision(top.Pairs, d.ws.signal)
	if p.precision < precisionFloor && !r.cfg.smoke {
		p.fail("topk_precision %.3f below the floor %.2f", p.precision, precisionFloor)
	}
	if w.name == "dense-cs" {
		var accepted []int
		for i, rq := range d.reqs[:len(p.ingest)+probed] {
			if i >= len(p.ingest) || p.ingest[i].ok {
				for s := rq.lo; s < rq.hi; s++ {
					accepted = append(accepted, s)
				}
			}
		}
		ref, err := referenceEstimates(d.ws, accepted, d.horizon, r.cfg.corruptReference)
		if err != nil {
			return nil, err
		}
		if err := checkTopK(top.Pairs, ref, topK); err != nil {
			p.fail("dense reference: %v", err)
		}
	}
	if p.peakMB, err = dmn.memMB("VmHWM"); err != nil {
		return nil, err
	}
	if traced {
		for _, path := range logs {
			traces, err := readServerTraces(path)
			if err != nil {
				return nil, err
			}
			r.tr.joinServerSpans(w.name, traces)
		}
	}
	return p, nil
}

const (
	// probeIngestEvery spaces the ingest requests of the query probe.
	probeIngestEvery = 10
	// probeInterval paces the probe: query i is sent no earlier than
	// i·probeInterval after the first. A back-to-back probe of fast
	// queries would sample the shared host for a second or less, and
	// its latencies would follow whatever the host did in that second.
	probeInterval = 10 * time.Millisecond
)

// probe runs the closed-loop query probe: w.probe top-k queries on one
// connection against the otherwise idle daemon, paced by probeInterval.
// Before every probeIngestEvery-th query it ingests the pool's next
// request and waits for it to apply, untimed, so the probe sees the
// candidate tracker at every point of its prune cycle rather than
// wherever the measured phase happened to stop. The wait polls
// /metrics, which never queues behind a shard, so the shards' query-wait
// histograms hold only the probe's queries. It returns how many pool
// requests it ingested, starting at pool index next; ops is the pair
// count applied before the probe.
func (r *runner) probe(w workload, d *workData, dmn *daemon, next int, ops int, p *phase, query func(int) bool) (int, error) {
	ingested := 0
	start := time.Now()
	for i := 0; i < w.probe; i++ {
		if i%probeIngestEvery == probeIngestEvery-1 && next+ingested < len(d.reqs) {
			rq := d.reqs[next+ingested]
			resp, code, err := post(r.client, dmn.base, rq.body, "")
			if err != nil || code != http.StatusOK || resp.Accepted != rq.hi-rq.lo {
				return ingested, fmt.Errorf("probe ingest: status %d, %v", code, err)
			}
			ingested++
			ops += rq.pairs
			if err := waitApplied(r.client, dmn.base, ops); err != nil {
				return ingested, err
			}
		}
		time.Sleep(time.Until(start.Add(time.Duration(i) * probeInterval)))
		sent := time.Now()
		ok := query(i)
		p.queries = append(p.queries, call{ready: sent, due: sent, sent: sent, end: time.Now(), ok: ok})
	}
	return ingested, nil
}

// restarts is durable-cs's set-up. Once dmn has logged the log prefix,
// it quiesces the WAL, records the served state, then SIGKILLs the
// daemon and restarts it on the same log setups times, timing each
// restart to ready and requiring bit-identical answers after it. Every
// restart replays the same log. It returns the last daemon, which
// serves the measured phase, and appends each restart's log to logs.
func (r *runner) restarts(w workload, d *workData, args []string, dir string, dmn *daemon, setups int, p *phase, logs *[]string) (*daemon, error) {
	if err := waitWALQuiet(r.client, dmn.base); err != nil {
		return dmn, err
	}
	var top server.TopKResponse
	if code, err := getJSON(r.client, dmn.base, topKPath, "", &top); err != nil || code != http.StatusOK {
		return dmn, fmt.Errorf("GET /v1/topk before the kill: status %d, %v", code, err)
	}
	probe := estimateProbe(top.Pairs, d.ws.dim, r.cfg.seed)
	before, err := capture(r.client, dmn.base, probe)
	if err != nil {
		return dmn, err
	}
	for k := 0; k < setups; k++ {
		dmn.kill()
		r.client.CloseIdleConnections()
		logPath := filepath.Join(dir, fmt.Sprintf("ascsd-restart%d.log", k))
		*logs = append(*logs, logPath)
		start := time.Now()
		if dmn, err = startDaemon(r.bin, args, logPath); err != nil {
			return nil, err
		}
		if err := dmn.waitReady(r.client, before.step, w.shards, 2*time.Minute); err != nil {
			return dmn, err
		}
		p.setup = append(p.setup, interval{start, time.Now()})
		after, err := capture(r.client, dmn.base, probe)
		if err != nil {
			return dmn, err
		}
		if err := sameState(before, after); err != nil {
			p.fail("restart %d: %v", k, err)
		}
		if pg, err := scrape(r.client, dmn.base); err == nil {
			p.restartRecovery = append(p.restartRecovery, pg.sum("ascs_wal_recovery_seconds"))
		}
	}
	return dmn, nil
}

// waitApplied polls /metrics until the shards have applied ops pairs.
func waitApplied(c *http.Client, base string, ops int) error {
	deadline := time.Now().Add(time.Minute)
	for time.Now().Before(deadline) {
		pg, err := scrape(c, base)
		if err != nil {
			return err
		}
		if pg.sum("ascs_shard_ops_total") >= float64(ops) {
			return nil
		}
		time.Sleep(500 * time.Microsecond)
	}
	return fmt.Errorf("%d pairs not applied within a minute", ops)
}

// waitWALQuiet waits until ascsd's log has appended every teed batch
// and its fsync count has stopped moving, so a SIGKILL loses nothing.
func waitWALQuiet(c *http.Client, base string) error {
	deadline := time.Now().Add(time.Minute)
	var lastSeq, lastSyncs float64
	stable := 0
	for time.Now().Before(deadline) {
		pg, err := scrape(c, base)
		if err != nil {
			return err
		}
		seq, syncs := pg.sum("ascs_wal_last_seq"), pg.sum("ascs_wal_fsyncs_total")
		if seq == lastSeq && syncs == lastSyncs && pg.sum("ascs_wal_records_total") == seq {
			if stable++; stable == 3 {
				return nil
			}
		} else {
			stable = 0
		}
		lastSeq, lastSyncs = seq, syncs
		time.Sleep(20 * time.Millisecond)
	}
	return fmt.Errorf("WAL did not quiesce within a minute")
}

func rateInterval(perSec float64) time.Duration {
	return time.Duration(float64(time.Second) / perSec)
}

// traceID returns the request id a traced phase sends ("" untraced).
func (r *runner) traceID(traced bool, w workload, kind string, i int) string {
	if !traced {
		return ""
	}
	return reqID(w, kind, i)
}

// clientSpan records one client span in a traced phase.
func (r *runner) clientSpan(traced bool, w workload, name, id string, start, end time.Time) {
	if traced {
		r.tr.add(span{Name: name, Request: id, Workload: w.name, Start: r.tr.at(start), End: r.tr.at(end)})
	}
}
