package server_test

import (
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/countsketch"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/stream"
)

func resSamples(d, n int) []stream.Sample {
	out := make([]stream.Sample, n)
	for i := range out {
		a := i % (d - 2)
		out[i] = stream.Sample{Idx: []int{a, a + 1, a + 2}, Val: []float64{2, -1, 3}}
	}
	return out
}

// TestResolutionKnob pins the tiered-serving HTTP contract: the
// ?resolution knob validates, explicit folded reads ride the memoized
// path (second identical query is a cache hit), explicit full reads
// always fan out, and the response labels the tier that actually served.
func TestResolutionKnob(t *testing.T) {
	const d, n = 20, 300
	_, ts := newTestServer(t, shard.Config{
		Dim: d, Shards: 2,
		Engine: shard.EngineSpec{Kind: shard.KindCS, Sketch: countsketch.Config{Tables: 3, Range: 512, Seed: 41}, T: 10_000},
	}, server.Options{})

	if resp, body := postJSON(t, ts.URL+"/v1/ingest", wireSamples(resSamples(d, n))); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d: %s", resp.StatusCode, body)
	}

	// Unknown resolution values are rejected.
	if resp := getJSON(t, ts.URL+"/v1/topk?k=5&resolution=bogus", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("resolution=bogus: status %d, want 400", resp.StatusCode)
	}

	// Default reads on a healthy deployment serve full resolution.
	var full server.TopKResponse
	if resp := getJSON(t, ts.URL+"/v1/topk?k=5", &full); resp.StatusCode != http.StatusOK {
		t.Fatalf("default topk status %d", resp.StatusCode)
	}
	if full.Resolution != "full" || full.Cached {
		t.Fatalf("default read: resolution=%q cached=%v, want full/false", full.Resolution, full.Cached)
	}

	// An explicit folded read opts onto the memoized tier: the first
	// warms the memo, the repeat is a cache hit with identical pairs.
	var warm, hit server.TopKResponse
	if resp := getJSON(t, ts.URL+"/v1/topk?k=5&resolution=folded", &warm); resp.StatusCode != http.StatusOK {
		t.Fatalf("folded topk status %d", resp.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/v1/topk?k=5&resolution=folded", &hit); resp.StatusCode != http.StatusOK {
		t.Fatalf("folded topk repeat status %d", resp.StatusCode)
	}
	if !hit.Cached || hit.Resolution != "folded" {
		t.Fatalf("repeat folded read: resolution=%q cached=%v, want folded/true", hit.Resolution, hit.Cached)
	}
	if len(warm.Pairs) != len(hit.Pairs) {
		t.Fatalf("memo changed the answer: %d vs %d pairs", len(warm.Pairs), len(hit.Pairs))
	}
	for i := range warm.Pairs {
		if warm.Pairs[i] != hit.Pairs[i] {
			t.Fatalf("memo pair %d differs: %+v vs %+v", i, warm.Pairs[i], hit.Pairs[i])
		}
	}

	// Explicit full bypasses the memo even when it is warm.
	var forced server.TopKResponse
	if resp := getJSON(t, ts.URL+"/v1/topk?k=5&resolution=full", &forced); resp.StatusCode != http.StatusOK {
		t.Fatalf("resolution=full status %d", resp.StatusCode)
	}
	if forced.Cached {
		t.Fatal("resolution=full served from the memo")
	}

	// Estimate carries the tier label too, and validates the knob.
	if resp := getJSON(t, ts.URL+"/v1/estimate?i=0&j=1&resolution=bogus", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("estimate resolution=bogus: status %d, want 400", resp.StatusCode)
	}
	var est server.EstimateResponse
	if resp := getJSON(t, ts.URL+"/v1/estimate?i=0&j=1&resolution=folded", &est); resp.StatusCode != http.StatusOK {
		t.Fatalf("estimate status %d", resp.StatusCode)
	}
	if est.Resolution != "full" {
		t.Fatalf("estimate resolution %q with no folded shards, want full", est.Resolution)
	}

	// The folded-tolerant traffic shows up on /metrics.
	page := scrape(t, ts.URL)
	if !strings.Contains(page, "ascs_http_folded_queries_total 3") {
		t.Errorf("folded query counter missing or wrong:\n%s", grepLine(page, "ascs_http_folded_queries_total"))
	}
	// Both folded top-k reads hit: the default full read already warmed
	// the memo (memoization is unconditional; only consulting is gated).
	if !strings.Contains(page, "ascs_topk_cache_hits_total 2") {
		t.Errorf("cache hit counter missing or wrong:\n%s", grepLine(page, "ascs_topk_cache_hits_total"))
	}
}

// TestResolutionFoldedShards pins the response label against live fold
// state: once the idle policy folds the shards, even a default read
// reports the folded tier.
func TestResolutionFoldedShards(t *testing.T) {
	const d = 20
	srv, ts := newTestServer(t, shard.Config{
		Dim: d, Shards: 2,
		Engine:        shard.EngineSpec{Kind: shard.KindCS, Sketch: countsketch.Config{Tables: 3, Range: 512, Seed: 43}, T: 10_000},
		FoldIdle:      5 * time.Millisecond,
		FoldIdleTicks: 1,
		FoldLevels:    2,
	}, server.Options{})

	if resp, body := postJSON(t, ts.URL+"/v1/ingest", wireSamples(resSamples(d, 200))); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d: %s", resp.StatusCode, body)
	}
	// The ingest POST returns once its batches are queued, not applied.
	// Wait until every shard has applied them: otherwise one shard can
	// fold while the other still holds queued batches, and a later batch
	// unfolds the first before the top-k read below.
	if err := srv.Manager().Flush(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.Manager().MaxShardFoldLevel() == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if srv.Manager().MaxShardFoldLevel() == 0 {
		t.Fatal("shards never folded")
	}

	var resp server.TopKResponse
	if r := getJSON(t, ts.URL+"/v1/topk?k=5", &resp); r.StatusCode != http.StatusOK {
		t.Fatalf("topk status %d", r.StatusCode)
	}
	if resp.Resolution != "folded" {
		t.Fatalf("topk over folded shards: resolution %q, want folded", resp.Resolution)
	}
	var est server.EstimateResponse
	if r := getJSON(t, ts.URL+"/v1/estimate?i=0&j=1", &est); r.StatusCode != http.StatusOK {
		t.Fatalf("estimate status %d", r.StatusCode)
	}
	if est.Resolution != "folded" {
		t.Fatalf("estimate over folded shards: resolution %q, want folded", est.Resolution)
	}
}

// grepLine extracts the exposition lines containing needle, for
// readable failure messages.
func grepLine(page, needle string) string {
	var out []string
	for _, line := range strings.Split(page, "\n") {
		if strings.Contains(line, needle) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}
