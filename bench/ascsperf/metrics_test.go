package main

import (
	"math"
	"testing"

	"repro/internal/obs"
)

// goldenBefore and goldenAfter are two scrapes in ascsd's exposition
// format (two shards, one histogram with elided empty buckets).
const goldenBefore = `# HELP ascs_shard_ops_total Pair increments applied by the shard worker.
# TYPE ascs_shard_ops_total counter
ascs_shard_ops_total{shard="0"} 1000
ascs_shard_ops_total{shard="1"} 3000
# HELP ascs_wave_fallback_total Wave groups replayed per-pair, by cause.
# TYPE ascs_wave_fallback_total counter
ascs_wave_fallback_total{shard="0",cause="conflict"} 1
ascs_wave_fallback_total{shard="0",cause="shape"} 9
# HELP ascs_shard_queue_high_water Deepest ingest FIFO backlog observed at enqueue (batches).
# TYPE ascs_shard_queue_high_water gauge
ascs_shard_queue_high_water{shard="0"} 3
ascs_shard_queue_high_water{shard="1"} 7
# HELP ascs_shard_query_wait_seconds Query closure wait by lane: enqueue to run start.
# TYPE ascs_shard_query_wait_seconds histogram
ascs_shard_query_wait_seconds_bucket{shard="0",lane="fresh",le="1.023e-06"} 10
ascs_shard_query_wait_seconds_bucket{shard="0",lane="fresh",le="+Inf"} 10
ascs_shard_query_wait_seconds_sum{shard="0",lane="fresh"} 5e-06
ascs_shard_query_wait_seconds_count{shard="0",lane="fresh"} 10
ascs_shard_query_wait_seconds_bucket{shard="0",lane="fast",le="+Inf"} 0
ascs_shard_query_wait_seconds_sum{shard="0",lane="fast"} 0
ascs_shard_query_wait_seconds_count{shard="0",lane="fast"} 0
`

const goldenAfter = `# HELP ascs_shard_ops_total Pair increments applied by the shard worker.
# TYPE ascs_shard_ops_total counter
ascs_shard_ops_total{shard="0"} 6000
ascs_shard_ops_total{shard="1"} 9000
# HELP ascs_wave_fallback_total Wave groups replayed per-pair, by cause.
# TYPE ascs_wave_fallback_total counter
ascs_wave_fallback_total{shard="0",cause="conflict"} 2
ascs_wave_fallback_total{shard="0",cause="shape"} 19
# HELP ascs_shard_queue_high_water Deepest ingest FIFO backlog observed at enqueue (batches).
# TYPE ascs_shard_queue_high_water gauge
ascs_shard_queue_high_water{shard="0"} 3
ascs_shard_queue_high_water{shard="1"} 12
# HELP ascs_shard_query_wait_seconds Query closure wait by lane: enqueue to run start.
# TYPE ascs_shard_query_wait_seconds histogram
ascs_shard_query_wait_seconds_bucket{shard="0",lane="fresh",le="1.023e-06"} 10
ascs_shard_query_wait_seconds_bucket{shard="0",lane="fresh",le="0.000524287"} 40
ascs_shard_query_wait_seconds_bucket{shard="0",lane="fresh",le="0.001048575"} 110
ascs_shard_query_wait_seconds_bucket{shard="0",lane="fresh",le="+Inf"} 110
ascs_shard_query_wait_seconds_sum{shard="0",lane="fresh"} 0.05
ascs_shard_query_wait_seconds_count{shard="0",lane="fresh"} 110
ascs_shard_query_wait_seconds_bucket{shard="0",lane="fast",le="0.001048575"} 1000
ascs_shard_query_wait_seconds_bucket{shard="0",lane="fast",le="+Inf"} 1000
ascs_shard_query_wait_seconds_sum{shard="0",lane="fast"} 0.9
ascs_shard_query_wait_seconds_count{shard="0",lane="fast"} 1000
`

func TestGoldenPageDeltas(t *testing.T) {
	before, err := parsePage([]byte(goldenBefore))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parsePage([]byte(goldenAfter))
	if err != nil {
		t.Fatal(err)
	}
	if d := delta(before, after, "ascs_shard_ops_total"); d != 11000 {
		t.Errorf("ops delta %v, want 11000", d)
	}
	// Labelled samples of one family sum across labels.
	if d := delta(before, after, "ascs_wave_fallback_total"); d != 11 {
		t.Errorf("fallback delta %v, want 11", d)
	}
	if hw := after.fams["ascs_shard_queue_high_water"].Max; hw != 12 {
		t.Errorf("high water %v, want 12", hw)
	}
	fresh := func(l map[string]string) bool { return l["lane"] == "fresh" }
	h := histDelta(before, after, "ascs_shard_query_wait_seconds", 1e-9, fresh)
	// 30 new observations in (262143, 524287] ns and 70 in
	// (524287, 1048575] ns; the fast lane is filtered out.
	if h.Count != 100 || h.Buckets[19] != 30 || h.Buckets[20] != 70 {
		t.Fatalf("fresh delta count=%d b19=%d b20=%d, want 100, 30, 70", h.Count, h.Buckets[19], h.Buckets[20])
	}
	v, label, n := histQuantileMS(h, 0.99)
	if label != "p90" || n != 100 {
		t.Fatalf("100 samples reported as %s n=%d, want p90 n=100", label, n)
	}
	if want := h.Quantile(0.9) / 1e6; v != want || v < 0.5 || v > 1.05 {
		t.Fatalf("p90 %v ms, want %v in (0.5, 1.05)", v, want)
	}
}

// TestHistogramRoundTrip renders histograms with obs.Expo, as ascsd
// does, and parses them back bucket for bucket.
func TestHistogramRoundTrip(t *testing.T) {
	var h obs.Hist
	for v := int64(1); v < 1<<40; v = v*3 + 1 {
		for i := 0; i < int(v%7)+1; i++ {
			h.Observe(v)
		}
	}
	var want obs.HistSnap
	h.Snapshot(&want)
	var e obs.Expo
	e.Header("x_seconds", "histogram", "test")
	e.Histogram("x_seconds", `shard="0"`, &want, 1e-9)
	p, err := parsePage(e.B.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	got := p.hist("x_seconds", 1e-9, nil)
	if got.Count != want.Count || got.Buckets != want.Buckets {
		t.Fatalf("round trip lost buckets:\n got %v\nwant %v", got.Buckets, want.Buckets)
	}
	if math.Abs(got.Quantile(0.99)-want.Quantile(0.99)) > 1e-9 {
		t.Fatalf("quantile %v, want %v", got.Quantile(0.99), want.Quantile(0.99))
	}
}
