package main

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "client.topk", Start: 0, End: 100},
		// Overlapping children count once; the part of a child outside
		// its parent does not count at all.
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
		{ID: 5, Parent: 3, Name: "d", Start: 25, End: 35},
	}
	selfTimes(spans)
	want := map[int]int64{1: 50, 2: 20, 3: 20, 4: 30, 5: 10}
	for _, s := range spans {
		if s.Self != want[s.ID] {
			t.Errorf("span %d (%s) self %d, want %d", s.ID, s.Name, s.Self, want[s.ID])
		}
	}
}

func TestParseTraceLine(t *testing.T) {
	line := `2026/10/16 12:00:00 ascsd: INFO trace request_id=mixed-topk-topk-7 route=topk status=200 route=2.5ms queue_wait=300µs shard_apply=1.5ms merge=20µs`
	id, st, ok := parseTraceLine(line)
	if !ok || id != "mixed-topk-topk-7" {
		t.Fatalf("parsed %q %+v %v", id, st, ok)
	}
	want := map[string]time.Duration{"route": 2500 * time.Microsecond, "queue_wait": 300 * time.Microsecond,
		"shard_apply": 1500 * time.Microsecond, "merge": 20 * time.Microsecond}
	for k, v := range want {
		if st[k] != v {
			t.Errorf("%s = %v, want %v", k, st[k], v)
		}
	}
	if _, _, ok := parseTraceLine("2026/10/16 12:00:00 ascsd: serving on 127.0.0.1:1"); ok {
		t.Error("non-trace line parsed")
	}
}

func TestJoinServerSpans(t *testing.T) {
	tr := newTracer()
	tr.add(span{Name: "client.topk", Request: "w-topk-0", Workload: "w", Start: 1000, End: 5000})
	tr.add(span{Name: "client.ingest", Request: "w-ingest-0", Workload: "w", Start: 6000, End: 9000})
	tr.joinServerSpans("w", map[string]serverTrace{
		"w-topk-0":   {"route": 3000, "queue_wait": 500, "shard_apply": 2000, "merge": 100},
		"w-ingest-0": {"route": 2000},
	})
	spans := tr.of("w")
	if got := childDurations(spans, "client.topk", "shard_apply"); len(got) != 1 || got[0] != 2000 {
		t.Fatalf("shard_apply under client.topk: %v", got)
	}
	if got := childDurations(spans, "client.ingest", "route"); len(got) != 1 || got[0] != 2000 {
		t.Fatalf("route under client.ingest: %v", got)
	}
	if got := childDurations(spans, "client.ingest", "shard_apply"); len(got) != 0 {
		t.Fatalf("zero-length ingest spans were joined: %v", got)
	}
	selfTimes(spans)
	for _, s := range spans {
		switch s.Name {
		case "client.topk":
			if s.Self != 1000 {
				t.Errorf("client.topk self %d, want 1000", s.Self)
			}
		case "route":
			if s.Request == "w-topk-0" && s.Self != 400 {
				t.Errorf("topk route self %d, want 400", s.Self)
			}
		}
	}
}
