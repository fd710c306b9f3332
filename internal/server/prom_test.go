package server_test

import (
	"bytes"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"

	"repro/internal/countsketch"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/stream"
)

func promSamples(d, n int) []stream.Sample {
	out := make([]stream.Sample, n)
	for i := range out {
		a := i % (d - 2)
		out[i] = stream.Sample{Idx: []int{a, a + 1, a + 2}, Val: []float64{1, -0.5, 2}}
	}
	return out
}

func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("/metrics content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestMetricsExposition is the golden test of the /metrics page: after
// real traffic the page must pass the internal Prometheus-format
// linter (valid comments, contiguous families, cumulative histograms,
// no duplicate series) and expose the acceptance-criteria families
// with stable names.
func TestMetricsExposition(t *testing.T) {
	const d, n = 20, 400
	_, ts := newTestServer(t, shard.Config{
		Dim: d, Shards: 3,
		// Fewer candidates than the stream's pair keys, so the trackers
		// prune and refuse and their counters read nonzero.
		TrackCandidates: 4,
		Engine:          shard.EngineSpec{Kind: shard.KindCS, Sketch: countsketch.Config{Tables: 3, Range: 512, Seed: 5}, T: 10_000},
	}, server.Options{})

	// One explicit zero value makes two of the sample's three pair
	// increments exactly zero, so the zero-increment counter reads 2.
	samples := promSamples(d, n)
	samples[0].Val = []float64{0, -0.5, 2}
	resp, body := postJSON(t, ts.URL+"/v1/ingest", wireSamples(samples))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d: %s", resp.StatusCode, body)
	}
	if resp := getJSON(t, ts.URL+"/v1/topk?k=5&consistency=fast", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("topk status %d", resp.StatusCode)
	}

	page := scrape(t, ts.URL)
	if err := obs.Lint(strings.NewReader(page)); err != nil {
		t.Fatalf("exposition fails lint: %v\npage:\n%s", err, page)
	}

	// The acceptance-criteria metrics, by their stable names.
	for _, want := range []string{
		`ascs_gate_admitted_mass_total{shard="0"}`,
		`ascs_gate_rejected_mass_total{shard="2"}`,
		`ascs_shard_queue_high_water{shard="1"}`,
		`ascs_shard_queue_depth{shard="0",lane="ingest"}`,
		`ascs_wave_fallback_total{shard="0",cause="conflict"}`,
		`ascs_shard_lane_jumps_total{shard="0"}`,
		`ascs_shard_ingest_wait_seconds_bucket{shard="0",le="+Inf"}`,
		`ascs_http_request_duration_seconds_bucket{route="ingest",le="+Inf"}`,
		`ascs_http_requests_total{route="topk"}`,
		`ascs_shard_admission_rejects_total{shard="0"}`,
		`ascs_shard_deadline_abandons_total{shard="0"}`,
		"# TYPE ascs_shed_requests_total counter",
		"# TYPE ascs_deadline_ops_total counter",
		"# TYPE ascs_deadline_queries_total counter",
		"# TYPE ascs_degraded gauge",
		"# TYPE ascs_degrade_transitions_total counter",
		"# TYPE ascs_degraded_queries_total counter",
		"# TYPE ascs_retry_after_seconds gauge",
		"# TYPE ascs_http_shed_total counter",
		"# TYPE ascs_http_deadline_exceeded_total counter",
		"# TYPE ascs_shard_apply_seconds histogram",
		"# TYPE ascs_shard_ops_total counter",
		"# TYPE ascs_shard_zero_increments_total counter",
		`ascs_shard_zero_increments_total{shard="1"}`,
		"# TYPE ascs_shard_fold_level gauge",
		"# TYPE ascs_shard_folds_total counter",
		"# TYPE ascs_shard_unfolds_total counter",
		"# TYPE ascs_http_folded_queries_total counter",
		"# TYPE ascs_topk_cache_hits_total counter",
		"# TYPE ascs_snapshot_last_bytes gauge",
		"# TYPE ascs_snapshots_total counter",
		"# TYPE ascs_topk_tracker_pruned_total counter",
		"# TYPE ascs_topk_tracker_refused_total counter",
		`ascs_topk_tracker_refused_total{shard="2"}`,
		`ascs_shard_fold_level{shard="0"}`,
		`ascs_shard_folds_total{shard="1"}`,
		"ascs_step 400",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("page is missing %q", want)
		}
	}

	// Cross-check a counter against the structured stats: the parsed
	// ops family must sum to the ops the ingest produced (3 pair ops
	// per sample).
	fams, err := obs.Parse(strings.NewReader(page))
	if err != nil {
		t.Fatal(err)
	}
	if got := fams["ascs_shard_ops_total"].Sum; got != float64(3*n) {
		t.Errorf("ascs_shard_ops_total sums to %v, want %d", got, 3*n)
	}
	if got := fams["ascs_shard_zero_increments_total"].Sum; got != 2 {
		t.Errorf("ascs_shard_zero_increments_total sums to %v, want 2", got)
	}
	// Floor refusals are a subset of the offers the trackers did not keep.
	if pruned, refused := fams["ascs_topk_tracker_pruned_total"].Sum, fams["ascs_topk_tracker_refused_total"].Sum; refused == 0 || refused > pruned {
		t.Errorf("tracker pruned total %v, refused total %v; want 0 < refused ≤ pruned", pruned, refused)
	}
	if fams["ascs_http_requests_total"].Sum < 2 {
		t.Errorf("http requests total %v, want ≥ 2", fams["ascs_http_requests_total"].Sum)
	}
}

// TestMetricsScrapeUnderIngest hammers /metrics while ingest and
// queries are in flight — the wait-free-scrape claim under the race
// detector. Every page must still lint.
func TestMetricsScrapeUnderIngest(t *testing.T) {
	const d = 20
	_, ts := newTestServer(t, shard.Config{
		Dim: d, Shards: 4,
		Engine: shard.EngineSpec{Kind: shard.KindCS, Sketch: countsketch.Config{Tables: 3, Range: 512, Seed: 6}, T: 1 << 20},
	}, server.Options{})

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		batch := promSamples(d, 50)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if resp, body := postJSON(t, ts.URL+"/v1/ingest", wireSamples(batch)); resp.StatusCode != http.StatusOK {
				t.Errorf("ingest status %d: %s", resp.StatusCode, body)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if resp := getJSON(t, ts.URL+"/v1/topk?k=3&consistency=fast", nil); resp.StatusCode != http.StatusOK {
				t.Errorf("topk status %d", resp.StatusCode)
				return
			}
		}
	}()
	for i := 0; i < 25; i++ {
		page := scrape(t, ts.URL)
		if err := obs.Lint(strings.NewReader(page)); err != nil {
			t.Fatalf("scrape %d fails lint under ingest: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestRequestIDAndTraceSampling pins the tracing contract: every
// response carries an X-Request-ID (echoed when supplied, generated
// otherwise), and with TraceEvery=1 each request emits one structured
// span log with the four span fields.
func TestRequestIDAndTraceSampling(t *testing.T) {
	var logBuf bytes.Buffer
	var logMu sync.Mutex
	logger := slog.New(slog.NewJSONHandler(&lockedWriter{mu: &logMu, w: &logBuf}, nil))

	const d = 16
	_, ts := newTestServer(t, shard.Config{
		Dim: d, Shards: 2,
		Engine: shard.EngineSpec{Kind: shard.KindCS, Sketch: countsketch.Config{Tables: 3, Range: 256, Seed: 7}, T: 10_000},
	}, server.Options{TraceEvery: 1, TraceLogger: logger})

	if resp, body := postJSON(t, ts.URL+"/v1/ingest", wireSamples(promSamples(d, 20))); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d: %s", resp.StatusCode, body)
	}

	// Echo: a supplied id comes back verbatim.
	req, _ := http.NewRequest("GET", ts.URL+"/v1/topk?k=3", nil)
	req.Header.Set("X-Request-ID", "client-supplied-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "client-supplied-42" {
		t.Fatalf("request id not echoed: %q", got)
	}

	// Generation: an absent id yields a fresh one.
	resp = getJSON(t, ts.URL+"/v1/stats", nil)
	if resp.Header.Get("X-Request-ID") == "" {
		t.Fatal("no X-Request-ID generated")
	}

	logMu.Lock()
	logs := logBuf.String()
	logMu.Unlock()
	if !strings.Contains(logs, `"request_id":"client-supplied-42"`) {
		t.Errorf("span log missing the echoed request id:\n%s", logs)
	}
	for _, span := range []string{"route", "queue_wait", "shard_apply", "merge"} {
		if !strings.Contains(logs, `"`+span+`"`) {
			t.Errorf("span log missing %q field:\n%s", span, logs)
		}
	}
}

// lockedWriter serializes concurrent slog writes in tests.
type lockedWriter struct {
	mu *sync.Mutex
	w  io.Writer
}

func (lw *lockedWriter) Write(p []byte) (int, error) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	return lw.w.Write(p)
}
