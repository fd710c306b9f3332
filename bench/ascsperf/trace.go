package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed interval of the traced run. Client spans wrap each
// request the bench sends; ascsd's sampled trace log lines join them as
// children by request id; the in-process ladder records one span per
// rung. Times are nanoseconds since the tracer's epoch.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent,omitempty"`
	Name     string `json:"name"`
	Request  string `json:"request_id,omitempty"`
	Workload string `json:"workload"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Self     int64  `json:"self_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records s (nil-safe) and returns its id.
func (t *tracer) add(s span) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// at converts a wall time to trace nanoseconds.
func (t *tracer) at(w time.Time) int64 { return int64(w.Sub(t.epoch)) }

// of returns the recorded spans of one workload.
func (t *tracer) of(workload string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Workload == workload {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes sets each span's Self to its duration minus the part of its
// interval its children cover (overlapping children count once).
func selfTimes(spans []span) {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	for i := range spans {
		p := &spans[i]
		cs := kids[p.ID]
		sort.Slice(cs, func(a, b int) bool { return cs[a].Start < cs[b].Start })
		var covered int64
		hi := p.Start
		for _, c := range cs {
			lo := max(c.Start, hi)
			end := min(c.End, p.End)
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		p.Self = p.End - p.Start - covered
	}
}

// writeSpans writes every span as one JSON object per line.
func (t *tracer) writeSpans(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	selfTimes(t.spans)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// serverTrace is one `trace` line of ascsd's -trace-every log: its span
// durations by span name.
type serverTrace map[string]time.Duration

// serverSpanNames are the spans ascsd logs per sampled request, in
// request order: route covers the handler; the others are its parts.
var serverSpanNames = []string{"route", "queue_wait", "shard_apply", "merge"}

// parseTraceLine parses a line such as
//
//	... INFO trace request_id=X route=topk status=200 route=1.2ms queue_wait=3µs shard_apply=0.8ms merge=20µs
//
// The first route attribute names the endpoint and is skipped; the
// second is the handler's span.
func parseTraceLine(line string) (string, serverTrace, bool) {
	i := strings.Index(line, " trace request_id=")
	if i < 0 {
		return "", nil, false
	}
	var id string
	st := serverTrace{}
	for _, f := range strings.Fields(line[i+len(" trace "):]) {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			continue
		}
		switch k {
		case "request_id":
			id = v
		case "route", "queue_wait", "shard_apply", "merge":
			if d, err := time.ParseDuration(v); err == nil {
				st[k] = d
			}
		}
	}
	return id, st, id != "" && st["route"] > 0
}

// readServerTraces parses every trace line of a daemon log.
func readServerTraces(path string) (map[string]serverTrace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]serverTrace{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		if id, st, ok := parseTraceLine(sc.Text()); ok {
			out[id] = st
		}
	}
	return out, sc.Err()
}

// joinServerSpans adds ascsd's spans under the client spans carrying
// the same request id. The log gives durations only, so route is placed
// to end with its client span (the response is written last) and its
// parts back to back from route's start; self time does not depend on
// the placement.
func (t *tracer) joinServerSpans(workload string, traces map[string]serverTrace) {
	for _, c := range t.of(workload) {
		st, ok := traces[c.Request]
		if c.Request == "" || c.Parent != 0 || !ok {
			continue
		}
		route := st["route"]
		start := max(c.End-int64(route), c.Start)
		rid := t.add(span{Parent: c.ID, Name: "route", Request: c.Request, Workload: workload, Start: start, End: c.End})
		at := start
		for _, name := range serverSpanNames[1:] {
			d := int64(st[name])
			if d <= 0 {
				continue
			}
			end := min(at+d, c.End)
			t.add(span{Parent: rid, Name: name, Request: c.Request, Workload: workload, Start: at, End: end})
			at = end
		}
	}
}

// childDurations returns the durations of the spans named name that
// descend from a span named rootName.
func childDurations(spans []span, rootName, name string) []time.Duration {
	byID := map[int]span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	var out []time.Duration
	for _, s := range spans {
		if s.Name != name {
			continue
		}
		for p := s.Parent; p != 0; p = byID[p].Parent {
			if byID[p].Name == rootName {
				out = append(out, s.dur())
				break
			}
		}
	}
	return out
}
