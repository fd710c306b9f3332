package main

import (
	"fmt"
	"sort"
	"time"
)

// account adds a phase's request counts and failed checks to res.
func account(res *result, p *phase) {
	for _, cs := range [][]call{p.ingest, p.queries} {
		_, failed := latencies(cs)
		res.attempted += len(cs)
		res.failed += failed
	}
	res.failures = append(res.failures, p.failures...)
}

// e2eMetrics reports the end-to-end metrics of an untraced phase
// through add.
func e2eMetrics(res *result, p *phase, add func(string, float64, string, string)) {
	account(res, p)
	note := fmt.Sprintf("median of %d windows; wall-clock median %.6g; pairs=%d wall=%.3fs",
		len(p.rates), median(p.wallRates), p.pairs, p.wall.Seconds())
	if p.poolExhausted {
		note += " (request pool exhausted before the deadline)"
	}
	add("ingest_pairs_per_s", p.ingestRate(), "pairs/s", note)
	res.addInfo("vm_stolen_frac", p.stolenFrac(), "frac", "share of the measured phase the VM waited for a physical core")
	res.addInfo("daemon_cpu_ns_per_pair", p.cpuPerPair(), "ns", fmt.Sprintf("daemon CPU %.3fs over the measured phase", p.cpu.Seconds()))
	for _, lat := range []struct {
		name  string
		calls []call
	}{{"ingest", p.ingest}, {"query", p.queries}} {
		wall, _ := latencies(lat.calls)
		d := newDist(vmLatencies(lat.calls, p.vm))
		add(lat.name+"_p50_ms", d.p50(), "ms", fmt.Sprintf("n=%d; wall-clock p50 %.6g", len(d), newDist(wall).p50()))
		// The tails are printed but kept out of the summary: on the
		// shared reference host their run-to-run spread exceeds the
		// widest bound a summary metric may have (README.md).
		v, label := d.tail(0.99)
		res.addInfo(lat.name+"_tail_ms", v, "ms", fmt.Sprintf("%s n=%d", label, len(d)))
	}
	add("topk_precision", p.precision, "frac", fmt.Sprintf("k=%d", topK))
	attempted := len(p.ingest) + len(p.queries)
	_, fi := latencies(p.ingest)
	_, fq := latencies(p.queries)
	add("ops_ok_frac", 1-float64(fi+fq)/float64(attempted), "frac", fmt.Sprintf("failed=%d attempted=%d", fi+fq, attempted))
	setups := make([]float64, len(p.setup))
	wallSetups := make([]float64, len(p.setup))
	for i, s := range p.setup {
		setups[i] = p.vm.seconds(s.from, s.to)
		wallSetups[i] = wallSeconds(s.from, s.to)
	}
	add("setup_s", median(setups), "s", fmt.Sprintf("median n=%d; wall-clock median %.6g", len(setups), median(wallSetups)))
	add("server_rss_mb", p.rssMB, "MB", "median VmRSS over the measured phase")
	res.addInfo("setup_peak_rss_mb", p.setupPeakMB, "MB", "VmHWM through set-up")
	res.addInfo("peak_rss_mb", p.peakMB, "MB", "VmHWM at the end of the run")
}

// layerMetrics reports the per-layer ledger of a -trace run: /metrics
// deltas and spans of the traced phase, the in-process ladder, and the
// comparisons with the untraced phase.
func layerMetrics(res *result, w workload, plain, traced *phase, lad *ladderResult, spans []span) {
	account(res, traced)
	before, after, probe := traced.pages[0], traced.pages[1], traced.pages[2]
	ratio := func(name, num, den string) {
		n, d := delta(before, after, num), delta(before, after, den)
		v := 0.0
		if d > 0 {
			v = n / d
		}
		res.add(name, v, "ratio", fmt.Sprintf("%.0f/%.0f", n, d))
	}
	ops := delta(before, after, "ascs_shard_ops_total")
	ns := func(r rung) float64 { return r.nsPerPair() }
	r := lad.rungs

	// engine: countsketch, core, hashing.
	res.add("engine.offer_ns_per_pair", ns(r[0]), "ns", fmt.Sprintf("pairs=%d", r[0].pairs))
	res.add("engine.allocs_per_pair", r[0].allocsPerPair(), "allocs", "")
	ratio("countsketch.wave_fallback_ratio", "ascs_wave_fallback_total", "ascs_wave_groups_total")
	ratio("core.gate_admit_ratio", "ascs_gate_admitted_total", "ascs_gate_offered_total")

	// topk.
	res.add("topk.offer_ns_per_pair", ns(r[1])-ns(r[0]), "ns", "rung 2 - rung 1")
	pruned := delta(before, after, "ascs_topk_tracker_pruned_total")
	res.add("topk.pruned_per_kpair", pruned/(ops/1000), "count", fmt.Sprintf("pruned=%.0f pairs=%.0f", pruned, ops))
	res.add("topk.top_ms", ms(lad.trackerTop), "ms", "median n=21")

	// shard.
	res.add("shard.overhead_ns_per_pair", ns(r[2])-ns(r[1]), "ns", "rung 3 - rung 2")
	applyS := delta(before, after, "ascs_shard_apply_seconds_sum")
	res.add("shard.apply_ns_per_pair", applyS*1e9/ops, "ns", fmt.Sprintf("apply=%.3fs pairs=%.0f", applyS, ops))
	res.add("shard.busy_frac", applyS/(traced.wall.Seconds()*float64(w.shards)), "frac", fmt.Sprintf("shards=%d", w.shards))
	wait := histDelta(before, after, "ascs_shard_ingest_wait_seconds", 1e-9, nil)
	v, label, n := histQuantileMS(wait, 0.99)
	res.add("shard.ingest_wait_p99_ms", v, "ms", fmt.Sprintf("%s n=%d", label, n))
	res.add("shard.queue_high_water", after.fams["ascs_shard_queue_high_water"].Max, "batches", "max over shards")
	// The query window: concurrent with ingest in the open loop, the
	// probe after it otherwise.
	qb, qa := after, probe
	if w.open {
		qb, qa = before, after
	}
	qwait := histDelta(qb, qa, "ascs_shard_query_wait_seconds", 1e-9, func(l map[string]string) bool { return l["lane"] == "fresh" })
	v, label, n = histQuantileMS(qwait, 0.99)
	res.add("shard.query_wait_p99_ms", v, "ms", fmt.Sprintf("%s n=%d", label, n))
	for _, name := range []string{"queue_wait", "shard_apply", "merge"} {
		d := newDist(childDurations(spans, "client.topk", name))
		short := map[string]string{"queue_wait": "queue_wait", "shard_apply": "apply", "merge": "merge"}[name]
		res.add("shard.topk_"+short+"_ms", d.p50(), "ms", fmt.Sprintf("p50 n=%d", len(d)))
	}
	res.add("shard.topkt_ms", ms(lad.topkt), "ms", fmt.Sprintf("ladder median n=21 queue_wait=%v apply=%v merge=%v",
		lad.topktTrace.QueueWait, lad.topktTrace.Apply, lad.topktTrace.Merge))
	res.add("shard.warmup_s", traced.warmupCall.Seconds(), "s", "first ingest answered warm")
	res.add("stream.standardize_fit_s", lad.fit.Seconds(), "s", "ladder")
	res.add("shard.autospec_s", lad.autospec.Seconds(), "s", "ladder")

	// wal (ladder rung 4 and its replay).
	res.add("wal.overhead_ns_per_pair", ns(r[3])-ns(r[2]), "ns", "rung 4 - rung 3")
	perSync := 0.0
	if lad.walFsyncs > 0 {
		perSync = float64(lad.walRecords) / float64(lad.walFsyncs)
	}
	res.add("wal.records_per_fsync", perSync, "records", fmt.Sprintf("%d/%d", lad.walRecords, lad.walFsyncs))
	res.add("wal.bytes_per_pair", float64(lad.walBytes)/float64(r[3].pairs), "bytes", "")
	res.add("wal.recovery_s", lad.replay.Seconds(), "s", fmt.Sprintf("ops=%d", lad.replayOps))
	replayNS := 0.0
	if lad.replayOps > 0 {
		replayNS = float64(lad.replay) / float64(lad.replayOps)
	}
	res.add("wal.replay_ns_per_pair", replayNS, "ns", "")

	// server.
	res.add("server.ingest_ns_per_pair", ns(r[4])-ns(r[2]), "ns", "rung 5 - rung 3")
	res.add("server.allocs_per_pair", r[4].allocsPerPair()-r[2].allocsPerPair(), "allocs", "rung 5 - rung 3")
	for _, route := range []string{"ingest", "topk"} {
		d := newDist(childDurations(spans, "client."+route, "route"))
		res.add("server."+route+"_route_ms", d.p50(), "ms", fmt.Sprintf("p50 n=%d", len(d)))
	}

	// http and loadgen.
	e2eCPU := plain.cpuPerPair()
	res.add("http.ingest_ns_per_pair", e2eCPU-ns(r[4]), "ns", fmt.Sprintf("daemon CPU %.1f - rung 5", e2eCPU))
	var lags []time.Duration
	for _, c := range traced.ingest {
		lags = append(lags, c.lag())
	}
	d := newDist(lags)
	v, label = d.tail(0.99)
	res.add("loadgen.lag_p99_ms", v, "ms", fmt.Sprintf("%s n=%d", label, len(d)))
	res.add("tracing.overhead_frac", traced.cpuPerPair()/e2eCPU-1, "frac",
		fmt.Sprintf("daemon CPU per pair untraced %.1f traced %.1f ns", e2eCPU, traced.cpuPerPair()))

	// The ledger: each rung's CPU cost and its share of the daemon's.
	for i, rg := range r {
		res.addInfo(fmt.Sprintf("ladder.rung%d.%s_ns_per_pair", i+1, rg.name), ns(rg), "ns",
			fmt.Sprintf("CPU; wall=%.1f allocs/pair=%.4f share=%.3f", rg.wallPerPair(), rg.allocsPerPair(), ns(rg)/e2eCPU))
	}
	res.addInfo("ladder.end_to_end_ns_per_pair", e2eCPU, "ns", "daemon CPU per accepted pair, untraced")
	res.addInfo("ladder.end_to_end_wall_ns_per_pair", 1e9/plain.ingestRate(), "ns", "1/ingest_pairs_per_s, untraced")
	if w.wal {
		res.addInfo("live.wal.recovery_s", median(traced.restartRecovery), "s", "ascs_wal_recovery_seconds after restart")
		res.addInfo("live.wal.records_per_fsync", delta(before, after, "ascs_wal_records_total")/delta(before, after, "ascs_wal_fsyncs_total"), "records", "")
		res.addInfo("live.wal.bytes_per_pair", delta(before, after, "ascs_wal_appended_bytes_total")/ops, "bytes", "")
	}
	selfTimes(spans)
	byName := map[string][]time.Duration{}
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], time.Duration(s.Self))
	}
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		d := newDist(byName[n])
		res.addInfo("span."+n+".self_p50_ms", d.p50(), "ms", fmt.Sprintf("n=%d", len(d)))
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
