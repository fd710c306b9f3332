package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// smokeRun runs the benchmark at toy size against the checkout two
// directories up, returning the check verdict and the output.
func smokeRun(t *testing.T, cfg config) (bool, string) {
	t.Helper()
	if testing.Short() {
		t.Skip("boots ascsd; skipped under -short")
	}
	cfg.smoke, cfg.seconds, cfg.seed = true, 1, 1
	cfg.root, cfg.buildDir = "../..", t.TempDir()
	var out bytes.Buffer
	ok, err := run(cfg, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	return ok, out.String()
}

func TestSmoke(t *testing.T) {
	start := time.Now()
	ok, out := smokeRun(t, config{})
	if !ok {
		t.Fatalf("smoke run failed its checks:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var sum struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
		t.Fatalf("last line is not the JSON summary: %v", err)
	}
	for _, w := range workloads {
		for _, m := range []string{"ingest_pairs_per_s", "ingest_p50_ms", "query_p50_ms",
			"topk_precision", "ops_ok_frac", "setup_s", "server_rss_mb"} {
			if v, ok := sum.Metrics[w.name+"."+m]; !ok || v.Value <= 0 {
				t.Errorf("%s.%s missing or not positive: %+v", w.name, m, v)
			}
		}
		for _, m := range []string{"ingest_tail_ms", "query_tail_ms"} {
			if !strings.Contains(out, w.name+" "+m+" ") {
				t.Errorf("%s %s not printed", w.name, m)
			}
		}
	}
	if el := time.Since(start); el > 15*time.Second {
		t.Errorf("smoke run took %v, want under 15s", el)
	}
}

// TestCorruptReferenceFails: a reference that disagrees with the
// daemon must fail the dense-cs output check.
func TestCorruptReferenceFails(t *testing.T) {
	ok, out := smokeRun(t, config{workload: "dense-cs", corruptReference: true})
	if ok || !strings.Contains(out, "CHECK FAILED: dense reference") {
		t.Fatalf("corrupted reference passed (ok=%v):\n%s", ok, out)
	}
}
