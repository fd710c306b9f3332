package main

import (
	"math"
	"testing"
	"time"
)

func TestTailQuantile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{1200, 0.99, true},
		{1000, 0.99, true},
		{999, 0.975, true},
		{400, 0.975, true},
		{200, 0.95, true},
		{20, 0.5, true},
		{19, 0, false},
	} {
		got, ok := tailQuantile(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("tailQuantile(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
	}
}

func TestDistTailLabel(t *testing.T) {
	ds := make([]time.Duration, 200)
	for i := range ds {
		ds[i] = time.Duration(i+1) * time.Millisecond
	}
	v, label := newDist(ds).tail(0.99)
	if label != "p95" {
		t.Fatalf("200 samples report %s, want p95", label)
	}
	if v < 189 || v > 191 {
		t.Fatalf("p95 of 1..200 ms = %v", v)
	}
}

// fakeClock advances only when slept or when a request takes time.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

// TestOpenLoopChargesStall: one stalled response delays the requests
// scheduled behind it, and their latency counts from their due time.
func TestOpenLoopChargesStall(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	start := clk.now
	service := func(i int) time.Duration {
		if i == 2 {
			return 55 * time.Millisecond
		}
		return time.Millisecond
	}
	calls := openLoop(clk, start, 10*time.Millisecond, start.Add(100*time.Millisecond), 100, func(i int) bool {
		clk.Sleep(service(i))
		return true
	})
	if len(calls) != 10 {
		t.Fatalf("%d calls scheduled before the deadline, want 10", len(calls))
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	// Request 2 is due at 20 ms and answers at 75 ms. Requests 3..7 are
	// due at 30..70 ms but can only go out when the previous answer is
	// back, 1 ms apart from 75 ms on.
	want := map[int]float64{0: 1, 1: 1, 2: 55, 3: 46, 4: 37, 5: 28, 6: 19, 7: 10, 8: 1, 9: 1}
	for i, c := range calls {
		if got := ms(c.latency()); got != want[i] {
			t.Errorf("request %d latency %v ms, want %v", i, got, want[i])
		}
	}
	if lag := ms(calls[3].lag()); lag != 45 {
		t.Errorf("request 3 sent %v ms late, want 45", lag)
	}
	if lag := ms(calls[9].lag()); lag != 0 {
		t.Errorf("request 9 sent %v ms late, want on time", lag)
	}
}

func TestClosedLoopStopsAtPool(t *testing.T) {
	calls := closedLoop(2, 50, time.Now().Add(time.Minute), func(i int) bool { return i%10 != 0 })
	if len(calls) != 50 {
		t.Fatalf("%d calls, want the whole pool of 50", len(calls))
	}
	ok, failed := latencies(calls)
	if len(ok) != 45 || failed != 5 {
		t.Fatalf("ok=%d failed=%d, want 45 and 5", len(ok), failed)
	}
}

// TestWindowRatesInterpolate: completions every 30 ms of weight 3 are a
// steady 100 per second, and every 0.5 s window reads exactly that even
// though a window holds 16 or 17 completions; failed calls add nothing.
func TestWindowRatesInterpolate(t *testing.T) {
	start := time.Unix(0, 0)
	var calls []call
	for i := 1; i <= 40; i++ {
		calls = append(calls, call{end: start.Add(time.Duration(i) * 30 * time.Millisecond), ok: true})
	}
	calls = append(calls, call{end: start.Add(100 * time.Millisecond), ok: false})
	rates := windowRates(calls, func(i int) float64 { return 3 }, start, time.Second, 2, wallSeconds)
	for k, r := range rates {
		if math.Abs(r-100) > 1e-9 {
			t.Errorf("window %d reads %v per second, want 100", k, r)
		}
	}
	// The last completion is at 1.2 s: the window [0.9 s, 1.8 s) holds
	// the last 10 completions and nothing after them.
	if rates := windowRates(calls, func(i int) float64 { return 3 }, start, 1800*time.Millisecond, 2, wallSeconds); math.Abs(rates[1]-30/0.9) > 1e-9 {
		t.Errorf("second window reads %v per second, want %v", rates[1], 30/0.9)
	}
}

func TestNormalizeArgs(t *testing.T) {
	cfg, err := parseFlags([]string{"--workload", "dense-cs", "--seed", "7", "--seconds", "3", "--trace", "1"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.workload != "dense-cs" || cfg.seed != 7 || cfg.seconds != 3 || !cfg.trace {
		t.Fatalf("parsed %+v", cfg)
	}
	if cfg, err = parseFlags([]string{"--trace", "0"}); err != nil || cfg.trace {
		t.Fatalf("--trace 0 parsed as %+v, %v", cfg, err)
	}
	if cfg, err = parseFlags([]string{"-trace"}); err != nil || !cfg.trace {
		t.Fatalf("-trace parsed as %+v, %v", cfg, err)
	}
	if _, err := parseFlags([]string{"-workload", "nope"}); err == nil {
		t.Fatal("unknown workload accepted")
	}
}
