package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/countsketch"
	"repro/internal/dataset"
	"repro/internal/faults"
	"repro/internal/shard"
	"repro/internal/stream"
)

// decodeSeeds are ingest bodies with whether the scanner must commit on
// them (true) or leave them to the encoding/json fallback (false).
var decodeSeeds = []struct {
	body    string
	scanned bool
}{
	// Canonical forms.
	{`{"samples":[{"idx":[0,3],"val":[1.5,-0.2]}]}`, true},
	{`{"samples":[{"val":[1.5,-0.2],"idx":[0,3]}]}`, true},
	{`{"samples":[]}`, true},
	{`{"samples":[{"idx":[],"val":[]}]}`, true},
	{" \t\r\n{ \"samples\" :\n[ { \"idx\" : [ 0 , 3 ] ,\t\"val\" : [ 1 , 2 ] } ]\r}\n", true},
	{`{"samples":[{"idx":[-0,0],"val":[-0,0.0]}]}`, true},
	{`{"samples":[{"idx":[1,2],"val":[0.12345678901234567,-1.2345678901234567e-300]}]}`, true},
	{`{"samples":[{"idx":[1,2,3],"val":[5e-324,2.2250738585072011e-308,1e-400]}]}`, true},
	{`{"samples":[{"idx":[1,2],"val":[1E+2,-3.5e-0]}]}`, true},
	{`{"samples":[{"idx":[9223372036854775807,-9223372036854775808],"val":[1,2]}]}`, true},
	{`{"samples":[{"idx":[0],"val":[1]},{"idx":[1],"val":[2]}]} garbage`, true},
	{`{"samples":[{"idx":[0],"val":[1]}]}{"samples":[]}`, true},
	{`{"samples":[{"idx":[0],"val":[1]}]}]`, true},
	// Key spellings encoding/json also matches.
	{`{"Samples":[{"idx":[0],"val":[1]}]}`, false},
	{`{"samples":[{"IDX":[0],"Val":[1]}]}`, false},
	{`{"\u0073amples":[{"idx":[0],"val":[1]}]}`, false},
	{`{"samples":[{"i\u0064x":[0],"v\u0061l":[1]}]}`, false},
	{"{\"\u017Famples\":[{\"idx\":[0],\"val\":[1]}]}", false},
	// Duplicate and unknown fields.
	{`{"samples":[{"idx":[0],"idx":[1,2],"val":[1,2]}]}`, false},
	{`{"samples":[],"samples":[{"idx":[0],"val":[1]}]}`, false},
	{`{"samples":[{"idx":[0],"val":[1],"w":2}],"x":{"y":[1]}}`, false},
	{`{"samples":[{"idx":[0]}]}`, false},
	{`{"samples":[{}]}`, false},
	{`{}`, false},
	// null at every level.
	{`null`, false},
	{`{"samples":null}`, false},
	{`{"samples":[null]}`, false},
	{`{"samples":[{"idx":null,"val":null}]}`, false},
	{`{"samples":[{"idx":[null,1],"val":[null,2]}]}`, false},
	// Numbers encoding/json refuses, or that need its answer.
	{`{"samples":[{"idx":[1e2],"val":[1]}]}`, false},
	{`{"samples":[{"idx":[1.0],"val":[1]}]}`, false},
	{`{"samples":[{"idx":[9223372036854775808],"val":[1]}]}`, false},
	{`{"samples":[{"idx":[-9223372036854775809],"val":[1]}]}`, false},
	{`{"samples":[{"idx":[99999999999999999999],"val":[1]}]}`, false},
	{`{"samples":[{"idx":[01],"val":[1]}]}`, false},
	{`{"samples":[{"idx":[+1],"val":[1]}]}`, false},
	{`{"samples":[{"idx":[1],"val":[1e309]}]}`, false},
	{`{"samples":[{"idx":[1],"val":[-1e309]}]}`, false},
	{`{"samples":[{"idx":[1],"val":[.5]}]}`, false},
	{`{"samples":[{"idx":[1],"val":[1.]}]}`, false},
	{`{"samples":[{"idx":[1],"val":[1e]}]}`, false},
	{`{"samples":[{"idx":[1],"val":[0x10]}]}`, false},
	{`{"samples":[{"idx":[1],"val":[NaN]}]}`, false},
	{`{"samples":[{"idx":[1],"val":["1"]}]}`, false},
	{`{"samples":[{"idx":[1],"val":[1 2]}]}`, false},
	// Whitespace JSON does not allow, truncation, emptiness.
	{"{\"samples\":[{\"idx\":[1],\v\"val\":[1]}]}", false},
	{"{\"samples\":[{\"idx\":[1], \"val\":[1]}]}", false},
	{`{"samples":[{"idx":[0,3],"val":[1.5,-0.`, false},
	{`{"samples":[{"idx":[0,3],"val":[1.5,-0.2]}]`, false},
	{`{"samples":`, false},
	{`{`, false},
	{``, false},
	{`[]`, false},
}

// checkDecode compares the ingest decode of body under a cap of limit
// bytes with today's reference, decodeBody into an IngestRequest: both
// accept with equal samples (values compared bit for bit), or both
// reject with the same status and message.
func checkDecode(t *testing.T, body []byte, limit int64) {
	t.Helper()
	a := new(ingestArena)
	got, err := a.decode(a.readBody(nil, httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(body)), limit))
	var want IngestRequest
	wantErr := decodeBody(nil, httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(body)), limit, &want)
	if err != nil || wantErr != nil {
		if err == nil || wantErr == nil {
			t.Fatalf("%q (cap %d): decode error %v, reference error %v", body, limit, err, wantErr)
		}
		if statusOf(err) != statusOf(wantErr) || err.Error() != wantErr.Error() {
			t.Fatalf("%q (cap %d): decode rejects with %d %q, reference with %d %q",
				body, limit, statusOf(err), err, statusOf(wantErr), wantErr)
		}
		return
	}
	if len(got) != len(want.Samples) {
		t.Fatalf("%q: %d samples, reference %d", body, len(got), len(want.Samples))
	}
	for i, s := range got {
		w := want.Samples[i]
		if len(s.Idx) != len(w.Idx) || len(s.Val) != len(w.Val) {
			t.Fatalf("%q: sample %d has %d/%d entries, reference %d/%d", body, i, len(s.Idx), len(s.Val), len(w.Idx), len(w.Val))
		}
		for j := range s.Idx {
			if s.Idx[j] != w.Idx[j] {
				t.Fatalf("%q: sample %d idx[%d] = %d, reference %d", body, i, j, s.Idx[j], w.Idx[j])
			}
		}
		for j := range s.Val {
			if math.Float64bits(s.Val[j]) != math.Float64bits(w.Val[j]) {
				t.Fatalf("%q: sample %d val[%d] = %v, reference %v", body, i, j, s.Val[j], w.Val[j])
			}
		}
	}
}

// FuzzIngestDecode is the differential between the ingest decoder and
// encoding/json on arbitrary bytes. limit is the body cap (0 = 1 MiB),
// so the 413 boundary is fuzzed too.
func FuzzIngestDecode(f *testing.F) {
	for _, s := range decodeSeeds {
		f.Add([]byte(s.body), uint16(0))
	}
	const value = `{"samples":[{"idx":[0,1],"val":[1,2]}]}`
	f.Add([]byte(value), uint16(len(value)))
	f.Add([]byte(value), uint16(len(value)-1))
	f.Add([]byte(value+strings.Repeat(" ", 600)+"tail"), uint16(len(value)))
	f.Add([]byte(value+"garbage"), uint16(len(value)+3))
	f.Add([]byte(`{"samples":x`+strings.Repeat(" ", 40)), uint16(16))
	f.Add([]byte(`{"samples":[{"idx":[0,1],"val":[1,2]},{"idx":[2,3],"val":[3,4]}]}`), uint16(48))
	f.Fuzz(func(t *testing.T, body []byte, limit uint16) {
		capBytes := int64(limit)
		if capBytes == 0 {
			capBytes = 1 << 20
		}
		checkDecode(t, body, capBytes)
	})
}

// TestIngestScanCommits pins which seeds the scanner itself decodes, so
// the differential cannot pass by always falling back.
func TestIngestScanCommits(t *testing.T) {
	for _, s := range decodeSeeds {
		if _, _, _, got := scan([]byte(s.body), nil, nil, nil); got != s.scanned {
			t.Errorf("scan(%q) = %v, want %v", s.body, got, s.scanned)
		}
	}
}

// TestReadBodyPresizeBounded pins that a Content-Length header alone
// cannot make the handler allocate up to the body cap.
func TestReadBodyPresizeBounded(t *testing.T) {
	body := `{"samples":[{"idx":[0,1],"val":[1,2]}]}`
	r := httptest.NewRequest(http.MethodPost, "/v1/ingest", strings.NewReader(body))
	r.ContentLength = 64 << 20
	a := new(ingestArena)
	if err := a.readBody(nil, r, 64<<20); err != nil {
		t.Fatal(err)
	}
	if string(a.body) != body || cap(a.body) > arenaPoolBytes+1 {
		t.Fatalf("read %q into a buffer of cap %d, want the body within %d", a.body, cap(a.body), arenaPoolBytes+1)
	}
}

// scribble overwrites everything an arena holds, as a reused arena's
// next request would.
func scribble(a *ingestArena) {
	for b, i := a.body[:cap(a.body)], 0; i < len(b); i++ {
		b[i] = 'x'
	}
	for ints, i := a.ints[:cap(a.ints)], 0; i < len(ints); i++ {
		ints[i] = 1 << 40
	}
	for vals, i := a.vals[:cap(a.vals)], 0; i < len(vals); i++ {
		vals[i] = math.NaN()
	}
}

// TestIngestArenaLifetime pins that no pooled arena outlives its
// request: every arena is scribbled over as the request releases it,
// and the served estimates and top-k must still equal a reference
// manager fed cloned samples. It runs through the warm-up buffer, a
// WAL-armed manager and its replay, and duplicated batch delivery.
func TestIngestArenaLifetime(t *testing.T) {
	const d, n, batch = 30, 400, 25
	ds := dataset.Simulation(d, n, 0.02, 17)
	samples := make([]stream.Sample, n)
	for i, r := range ds.Rows {
		samples[i] = stream.FromDense(r)
	}
	sk := countsketch.Config{Tables: 5, Range: 1024, Seed: 11}
	cases := []struct {
		name string
		cfg  func(t *testing.T) shard.Config
		// recover, when set, rebuilds the served manager from durable
		// state after the served one is closed.
		recover bool
	}{
		{name: "warmup", cfg: func(*testing.T) shard.Config {
			return shard.Config{Dim: d, Shards: 2, Warmup: 100,
				Engine: shard.EngineSpec{Kind: shard.KindASCS, Sketch: sk, T: n}}
		}},
		{name: "wal", recover: true, cfg: func(t *testing.T) shard.Config {
			return shard.Config{Dim: d, Shards: 2, WALDir: t.TempDir(), WALSync: "off",
				Engine: shard.EngineSpec{Kind: shard.KindCS, Sketch: sk, T: n}}
		}},
		{name: "dup", cfg: func(t *testing.T) shard.Config {
			in, err := faults.Parse("seed=5,dup=0.5")
			if err != nil {
				t.Fatal(err)
			}
			return shard.Config{Dim: d, Shards: 2, Faults: in,
				Engine: shard.EngineSpec{Kind: shard.KindCS, Sketch: sk, T: n}}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg(t)
			mgr, err := shard.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			srv := New(mgr, Options{})
			scribbled := 0
			srv.arenaDone = func(a *ingestArena) {
				if len(a.samples) > 0 && len(a.ints) > 0 {
					scribbled++
				}
				scribble(a)
			}
			refCfg := tc.cfg(t)
			refCfg.WALDir, refCfg.WALSync = "", ""
			ref, err := shard.New(refCfg)
			if err != nil {
				t.Fatal(err)
			}
			defer ref.Close()
			for lo := 0; lo < n; lo += batch {
				body, err := json.Marshal(wireRequest(samples[lo : lo+batch]))
				if err != nil {
					t.Fatal(err)
				}
				rr := httptest.NewRecorder()
				srv.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(body)))
				if rr.Code != http.StatusOK {
					t.Fatalf("ingest [%d,%d): status %d: %s", lo, lo+batch, rr.Code, rr.Body)
				}
				clones := make([]stream.Sample, batch)
				for i, s := range samples[lo : lo+batch] {
					clones[i] = s.Clone()
				}
				if _, _, err := ref.Ingest(clones); err != nil {
					t.Fatal(err)
				}
			}
			if scribbled != n/batch {
				t.Fatalf("scribbled %d scanned arenas, want %d", scribbled, n/batch)
			}
			if tc.name == "dup" {
				for _, f := range cfg.Faults.Fired() {
					if f.Kind == "dup" && f.Count == 0 {
						t.Fatal("no batch was delivered twice")
					}
				}
			}
			requireSameServing(t, ref, srv.Manager())
			if err := srv.Close(); err != nil {
				t.Fatal(err)
			}
			if tc.recover {
				rec, err := shard.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer rec.Close()
				if err := rec.Flush(); err != nil {
					t.Fatal(err)
				}
				if ws := rec.WALStats(); ws == nil || ws.Recovery.ReplayedRecords == 0 {
					t.Fatalf("recovery replayed nothing: %+v", ws)
				}
				requireSameServing(t, ref, rec)
			}
		})
	}
}

func wireRequest(samples []stream.Sample) IngestRequest {
	req := IngestRequest{Samples: make([]SampleJSON, len(samples))}
	for i, s := range samples {
		req.Samples[i] = SampleJSON{Idx: s.Idx, Val: s.Val}
	}
	return req
}

// requireSameServing compares the served top-k and every pair estimate
// of two managers bit for bit.
func requireSameServing(t *testing.T, want, got *shard.Manager) {
	t.Helper()
	if ws, gs := want.Step(), got.Step(); ws != gs {
		t.Fatalf("step %d, reference %d", gs, ws)
	}
	wTop, err := want.TopKMagnitude(20)
	if err != nil {
		t.Fatal(err)
	}
	gTop, err := got.TopKMagnitude(20)
	if err != nil {
		t.Fatal(err)
	}
	if len(wTop) != len(gTop) {
		t.Fatalf("top-k has %d pairs, reference %d", len(gTop), len(wTop))
	}
	for i := range wTop {
		if wTop[i] != gTop[i] {
			t.Fatalf("top-k[%d] = %+v, reference %+v", i, gTop[i], wTop[i])
		}
	}
	d := want.Dim()
	for a := 0; a < d; a++ {
		for b := a + 1; b < d; b++ {
			we, err := want.Estimate(a, b)
			if err != nil {
				t.Fatal(err)
			}
			ge, err := got.Estimate(a, b)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(we) != math.Float64bits(ge) {
				t.Fatalf("estimate(%d,%d) = %v, reference %v", a, b, ge, we)
			}
		}
	}
}
