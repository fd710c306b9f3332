package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/countsketch"
	"repro/internal/dataset"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/stream"
)

func newTestServer(t *testing.T, cfg shard.Config, opts server.Options) (*server.Server, *httptest.Server) {
	t.Helper()
	mgr, err := shard.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(mgr, opts)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(url, "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp
}

func wireSamples(samples []stream.Sample) server.IngestRequest {
	req := server.IngestRequest{Samples: make([]server.SampleJSON, len(samples))}
	for i, s := range samples {
		req.Samples[i] = server.SampleJSON{Idx: s.Idx, Val: s.Val}
	}
	return req
}

// TestServerRoundTrip drives the full serving loop over HTTP: ingest →
// topk → snapshot → restore → identical topk.
func TestServerRoundTrip(t *testing.T) {
	const d, n = 50, 1000
	ds := dataset.Simulation(d, n, 0.015, 13)
	samples := make([]stream.Sample, n)
	for i, r := range ds.Rows {
		samples[i] = stream.FromDense(r)
	}
	skCfg := countsketch.Config{Tables: 5, Range: 2048, Seed: 29}
	snapRoot := t.TempDir()
	_, ts := newTestServer(t, shard.Config{
		Dim: d, Shards: 4,
		Engine: shard.EngineSpec{Kind: shard.KindCS, Sketch: skCfg, T: n},
	}, server.Options{SnapshotDir: snapRoot})

	for lo := 0; lo < n; lo += 200 {
		resp, body := postJSON(t, ts.URL+"/v1/ingest", wireSamples(samples[lo:lo+200]))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest status %d: %s", resp.StatusCode, body)
		}
		var ir server.IngestResponse
		if err := json.Unmarshal(body, &ir); err != nil {
			t.Fatal(err)
		}
		if ir.Accepted != 200 || ir.First != lo+1 || ir.Last != lo+200 {
			t.Fatalf("ingest response %+v at lo=%d", ir, lo)
		}
	}

	var before server.TopKResponse
	if resp := getJSON(t, ts.URL+"/v1/topk?k=10&magnitude=1", &before); resp.StatusCode != http.StatusOK {
		t.Fatalf("topk status %d", resp.StatusCode)
	}
	if before.Step != n || len(before.Pairs) != 10 {
		t.Fatalf("topk response step=%d pairs=%d", before.Step, len(before.Pairs))
	}

	var est server.EstimateResponse
	top := before.Pairs[0]
	if resp := getJSON(t, fmt.Sprintf("%s/v1/estimate?i=%d&j=%d", ts.URL, top.A, top.B), &est); resp.StatusCode != http.StatusOK {
		t.Fatalf("estimate status %d", resp.StatusCode)
	}
	if est.Estimate != top.Estimate {
		t.Fatalf("estimate %v != topk estimate %v", est.Estimate, top.Estimate)
	}

	// Per-request lane overrides: with no ingest in flight both lanes
	// serve identical answers on every query endpoint.
	for _, lane := range []string{"fresh", "fast"} {
		var fest server.EstimateResponse
		url := fmt.Sprintf("%s/v1/estimate?i=%d&j=%d&consistency=%s", ts.URL, top.A, top.B, lane)
		if resp := getJSON(t, url, &fest); resp.StatusCode != http.StatusOK {
			t.Fatalf("estimate consistency=%s status %d", lane, resp.StatusCode)
		}
		if fest.Estimate != top.Estimate {
			t.Fatalf("consistency=%s estimate %v != %v", lane, fest.Estimate, top.Estimate)
		}
		var ftop server.TopKResponse
		if resp := getJSON(t, ts.URL+"/v1/topk?k=10&magnitude=1&consistency="+lane, &ftop); resp.StatusCode != http.StatusOK {
			t.Fatalf("topk consistency=%s status %d", lane, resp.StatusCode)
		}
		if len(ftop.Pairs) != len(before.Pairs) || ftop.Pairs[0] != before.Pairs[0] {
			t.Fatalf("consistency=%s topk diverges: %+v", lane, ftop.Pairs)
		}
		if resp := getJSON(t, ts.URL+"/v1/stats?consistency="+lane, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("stats consistency=%s status %d", lane, resp.StatusCode)
		}
	}

	resp, body := postJSON(t, ts.URL+"/v1/snapshot", server.SnapshotRequest{Dir: "checkpoint-1"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot status %d: %s", resp.StatusCode, body)
	}
	var snap server.SnapshotResponse
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Step != n {
		t.Fatalf("snapshot at step %d, want %d", snap.Step, n)
	}
	if snap.Dir != filepath.Join(snapRoot, "checkpoint-1") {
		t.Fatalf("snapshot resolved to %q, want it confined under %q", snap.Dir, snapRoot)
	}

	resp, body = postJSON(t, ts.URL+"/v1/restore", server.SnapshotRequest{Dir: "checkpoint-1"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restore status %d: %s", resp.StatusCode, body)
	}

	var after server.TopKResponse
	if resp := getJSON(t, ts.URL+"/v1/topk?k=10&magnitude=1", &after); resp.StatusCode != http.StatusOK {
		t.Fatalf("topk-after status %d", resp.StatusCode)
	}
	if len(after.Pairs) != len(before.Pairs) {
		t.Fatalf("topk after restore has %d pairs, want %d", len(after.Pairs), len(before.Pairs))
	}
	for i := range after.Pairs {
		if after.Pairs[i] != before.Pairs[i] {
			t.Fatalf("topk[%d] changed across snapshot/restore: %+v vs %+v", i, before.Pairs[i], after.Pairs[i])
		}
	}

	var st server.StatsResponse
	if resp := getJSON(t, ts.URL+"/v1/stats", &st); resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d", resp.StatusCode)
	}
	if st.Manager.Step != n || st.Manager.Shards != 4 {
		t.Fatalf("stats manager %+v", st.Manager)
	}
	if st.Requests["ingest"].Count != 5 || st.Requests["ingest"].Errors != 0 {
		t.Fatalf("ingest metrics %+v", st.Requests["ingest"])
	}
	if st.Requests["topk"].Count < 2 {
		t.Fatalf("topk metrics %+v", st.Requests["topk"])
	}
}

// TestServerStatusMapping covers the error envelope: 400 on malformed
// input, 503 while warming, 409 past the horizon (fixed-horizon mode;
// TestServerUnboundedDecay covers the decay-mode counterpart, which
// never 409s).
func TestServerStatusMapping(t *testing.T) {
	const d, n = 30, 400
	ds := dataset.Simulation(d, n, 0.02, 5)
	samples := make([]stream.Sample, n)
	for i, r := range ds.Rows {
		samples[i] = stream.FromDense(r)
	}
	skCfg := countsketch.Config{Tables: 4, Range: 1024, Seed: 3}
	_, ts := newTestServer(t, shard.Config{
		Dim: d, Shards: 2, Warmup: 100,
		Engine: shard.EngineSpec{Kind: shard.KindASCS, Sketch: skCfg, T: n},
	}, server.Options{SnapshotDir: t.TempDir()})

	if resp, _ := postJSON(t, ts.URL+"/v1/ingest", map[string]any{"samples": []any{}}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty ingest: status %d, want 400", resp.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/v1/estimate?i=zero&j=1", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad estimate params: status %d, want 400", resp.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/v1/topk?k=2000000000", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("huge k: status %d, want 400", resp.StatusCode)
	}
	// Unknown query lanes are the client's fault on every endpoint.
	for _, url := range []string{"/v1/topk?k=5&consistency=eventually", "/v1/estimate?i=0&j=1&consistency=0", "/v1/stats?consistency=slow"} {
		if resp := getJSON(t, ts.URL+url, nil); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", url, resp.StatusCode)
		}
	}
	// Malformed samples are the client's fault, not a 500.
	if resp, _ := postJSON(t, ts.URL+"/v1/ingest", server.IngestRequest{
		Samples: []server.SampleJSON{{Idx: []int{5, 3}, Val: []float64{1, 2}}},
	}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("decreasing indices: status %d, want 400", resp.StatusCode)
	}
	// Snapshot/restore paths are confined to the configured directory.
	for _, dir := range []string{"/etc/passwd-dir", "../escape", ".."} {
		if resp, _ := postJSON(t, ts.URL+"/v1/snapshot", server.SnapshotRequest{Dir: dir}); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("snapshot dir %q: status %d, want 400", dir, resp.StatusCode)
		}
	}
	// Body cap: a server with a tiny MaxBodyBytes rejects with 413.
	_, tiny := newTestServer(t, shard.Config{
		Dim: d, Shards: 1,
		Engine: shard.EngineSpec{Kind: shard.KindCS, Sketch: skCfg, T: n},
	}, server.Options{MaxBodyBytes: 16})
	if resp, _ := postJSON(t, tiny.URL+"/v1/ingest", server.IngestRequest{
		Samples: []server.SampleJSON{{Idx: []int{0, 1}, Val: []float64{1, 2}}},
	}); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", resp.StatusCode)
	}
	// The cap applies to the bytes the decode needs: a complete value
	// within the cap is accepted even when trailing bytes push the body
	// past it (json.Decoder never reads them), while a value that runs
	// past the cap, or a syntax error inside it, is answered as such.
	_, capped := newTestServer(t, shard.Config{
		Dim: d, Shards: 1,
		Engine: shard.EngineSpec{Kind: shard.KindCS, Sketch: skCfg, T: n},
	}, server.Options{MaxBodyBytes: 48})
	const value = `{"samples":[{"idx":[0,1],"val":[1,2]}]}`
	for _, tc := range []struct {
		body string
		want int
	}{
		{value + strings.Repeat(" ", 64), http.StatusOK},
		{value + "garbage" + strings.Repeat("x", 64), http.StatusOK},
		{`{"samples":[{"idx":[0,1],"val":[1,2]}, {"idx":[2,3],"val":[3,4]}]}`, http.StatusRequestEntityTooLarge},
		{`{"samples":x` + strings.Repeat(" ", 64), http.StatusBadRequest},
	} {
		resp, err := http.Post(capped.URL+"/v1/ingest", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Fatalf("capped body %.40q…: status %d, want %d", tc.body, resp.StatusCode, tc.want)
		}
	}

	// Warming: queries 503, ingest fine.
	if resp, body := postJSON(t, ts.URL+"/v1/ingest", wireSamples(samples[:50])); resp.StatusCode != http.StatusOK {
		t.Fatalf("warming ingest status %d: %s", resp.StatusCode, body)
	}
	if resp := getJSON(t, ts.URL+"/v1/topk?k=5", nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("warming topk: status %d, want 503", resp.StatusCode)
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/snapshot", server.SnapshotRequest{Dir: "early"}); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("warming snapshot: status %d, want 503", resp.StatusCode)
	}

	// Complete the stream, then overrun the horizon.
	if resp, body := postJSON(t, ts.URL+"/v1/ingest", wireSamples(samples[50:])); resp.StatusCode != http.StatusOK {
		t.Fatalf("full ingest status %d: %s", resp.StatusCode, body)
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/ingest", wireSamples(samples[:10])); resp.StatusCode != http.StatusConflict {
		t.Fatalf("horizon overrun: status %d, want 409", resp.StatusCode)
	}

	// Restore from a missing snapshot must not wedge the server.
	if resp, _ := postJSON(t, ts.URL+"/v1/restore", server.SnapshotRequest{Dir: "never-written"}); resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("bogus restore: status %d, want 500", resp.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/v1/topk?k=5", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("server wedged after failed restore: status %d", resp.StatusCode)
	}
}

// TestServerUnboundedDecay is the decay-mode counterpart of the horizon
// checks: ingest far past the window never 409s, and /v1/stats reports
// window semantics (unbounded, window, lambda, n_eff) instead of a
// misleading finite horizon.
func TestServerUnboundedDecay(t *testing.T) {
	const d, window = 30, 150
	ds := dataset.Simulation(d, 4*window, 0.02, 19)
	samples := make([]stream.Sample, len(ds.Rows))
	for i, r := range ds.Rows {
		samples[i] = stream.FromDense(r)
	}
	lambda := 1 - 1.0/window
	skCfg := countsketch.Config{Tables: 4, Range: 1024, Seed: 7}
	_, ts := newTestServer(t, shard.Config{
		Dim: d, Shards: 2,
		Engine: shard.EngineSpec{Kind: shard.KindCS, Sketch: skCfg, T: window, Lambda: lambda},
	}, server.Options{SnapshotDir: t.TempDir()})

	// 4 windows of samples: every batch lands with 200, no 409 ever.
	for lo := 0; lo < len(samples); lo += 100 {
		hi := lo + 100
		if hi > len(samples) {
			hi = len(samples)
		}
		if resp, body := postJSON(t, ts.URL+"/v1/ingest", wireSamples(samples[lo:hi])); resp.StatusCode != http.StatusOK {
			t.Fatalf("unbounded ingest [%d,%d): status %d: %s", lo, hi, resp.StatusCode, body)
		}
	}

	var st server.StatsResponse
	if resp := getJSON(t, ts.URL+"/v1/stats", &st); resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d", resp.StatusCode)
	}
	m := st.Manager
	if m.Horizon != 0 {
		t.Fatalf("stats horizon = %d for an unbounded deployment, want 0", m.Horizon)
	}
	if !m.Unbounded || m.Window != window || m.Lambda != lambda {
		t.Fatalf("stats lack window semantics: unbounded=%v window=%d lambda=%v", m.Unbounded, m.Window, m.Lambda)
	}
	if m.Step != len(samples) {
		t.Fatalf("stats step = %d, want %d", m.Step, len(samples))
	}
	if m.NEff <= 0 || m.NEff > float64(window) {
		t.Fatalf("stats n_eff = %v, want in (0,%d]", m.NEff, window)
	}

	// Snapshot/restore keeps the unbounded deployment serving.
	if resp, body := postJSON(t, ts.URL+"/v1/snapshot", server.SnapshotRequest{Dir: "ck"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot status %d: %s", resp.StatusCode, body)
	}
	if resp, body := postJSON(t, ts.URL+"/v1/restore", server.SnapshotRequest{Dir: "ck"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("restore status %d: %s", resp.StatusCode, body)
	}
	if resp, body := postJSON(t, ts.URL+"/v1/ingest", wireSamples(samples[:50])); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-restore ingest status %d: %s", resp.StatusCode, body)
	}
}

// discardWriter is a reusable ResponseWriter for allocation counts.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(int)             {}

// sparseBody encodes n samples of 10–19 indices out of d with 17-digit
// values, the shape of the sparse serving workload.
func sparseBody(t *testing.T, rng *rand.Rand, n, d int) []byte {
	t.Helper()
	req := server.IngestRequest{Samples: make([]server.SampleJSON, n)}
	for i := range req.Samples {
		nnz := 10 + rng.Intn(10)
		idx := rng.Perm(d)[:nnz]
		slices.Sort(idx)
		val := make([]float64, nnz)
		for j := range val {
			val[j] = rng.NormFloat64()
		}
		req.Samples[i] = server.SampleJSON{Idx: idx, Val: val}
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestIngestAllocsFlat pins the ingest handler's allocations per
// request to a small constant: the body decodes into pooled arenas, so
// the count must not grow with the samples a request carries.
func TestIngestAllocsFlat(t *testing.T) {
	const d = 2000
	// A short shard queue keeps the batch freelist ahead of routing, and
	// small batches keep every batch's run headers within their initial
	// capacity: the shard layer then allocates nothing per request, so
	// the count below is the handler's own.
	mgr, err := shard.New(shard.Config{
		Dim: d, Shards: 2, QueueLen: 2, FlushOps: 64,
		Engine: shard.EngineSpec{Kind: shard.KindCS, Sketch: countsketch.Config{Tables: 5, Range: 1 << 12, Seed: 7}, T: 1 << 30},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(mgr, server.Options{})
	defer srv.Close()
	h := srv.Handler()
	rng := rand.New(rand.NewSource(5))
	step := 0
	for _, n := range []int{16, 256} {
		body := sparseBody(t, rng, n, d)
		rd := bytes.NewReader(body)
		req := httptest.NewRequest(http.MethodPost, "/v1/ingest", io.NopCloser(rd))
		req.ContentLength = int64(len(body))
		req.Header.Set("X-Request-ID", "alloc-pin")
		w := &discardWriter{h: http.Header{}}
		serve := func() {
			rd.Reset(body)
			h.ServeHTTP(w, req)
		}
		for i := 0; i < 20; i++ {
			serve()
		}
		if err := mgr.Flush(); err != nil {
			t.Fatal(err)
		}
		avg := testing.AllocsPerRun(50, serve)
		st, err := mgr.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if step += 71 * n; st.Step != step {
			t.Fatalf("%d-sample bodies: step %d, want %d (ingest failed)", n, st.Step, step)
		}
		t.Logf("%d-sample ingest request: %.1f allocs", n, avg)
		// Steady state is 6. The slack covers the race detector, which
		// drops a quarter of sync.Pool puts at random; a re-grown arena
		// costs a handful of allocations at any request size.
		if avg > 16 {
			t.Fatalf("%d-sample ingest request allocates %.1f times, want ≤ 16 regardless of size", n, avg)
		}
	}
}
