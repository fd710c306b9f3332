package main

import (
	"math"
	"testing"
	"time"
)

// fakeVMClock has samples at 0, 1, 2 and 3 s: the VM runs unhindered in
// the first second, loses half of its non-idle time to steal in the
// second, and idles through the third.
func fakeVMClock(start time.Time) *vmClock {
	sec := func(s float64) time.Time { return start.Add(time.Duration(s * float64(time.Second))) }
	return &vmClock{done: make(chan struct{}), samples: []cpuSample{
		{at: sec(0), busy: 1000, steal: 7},
		{at: sec(1), busy: 1100, steal: 7},
		{at: sec(2), busy: 1150, steal: 57},
		{at: sec(3), busy: 1150, steal: 57},
	}}
}

func TestVMClockRan(t *testing.T) {
	start := time.Unix(100, 0)
	c := fakeVMClock(start)
	sec := func(s float64) time.Time { return start.Add(time.Duration(s * float64(time.Second))) }
	for _, tc := range []struct {
		from, to, want float64
	}{
		{0, 1, 1},
		{1, 2, 0.5},
		{0.5, 1.5, 0.75},
		{1.5, 2.5, 0.75},
		{0, 3, 2.5},
		// Outside the samples the nearest interval's share applies.
		{-1, 0, 1},
		{3, 4, 1},
		{2.5, 2.5, 0},
	} {
		if got := c.seconds(sec(tc.from), sec(tc.to)); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("ran(%v s, %v s) = %v s, want %v", tc.from, tc.to, got, tc.want)
		}
	}
	// A clock with fewer than two samples reads wall time.
	if got := (&vmClock{}).seconds(sec(0), sec(2)); got != 2 {
		t.Errorf("sampleless clock read %v s, want 2", got)
	}
}

// TestVMClockRatesAndLatencies: a steady 100 pairs per wall second reads
// 200 per second on the VM clock while half the VM's time is stolen,
// and a request in flight then takes half its wall time.
func TestVMClockRatesAndLatencies(t *testing.T) {
	start := time.Unix(100, 0)
	c := fakeVMClock(start)
	var calls []call
	for i := 1; i <= 200; i++ {
		calls = append(calls, call{end: start.Add(time.Duration(i) * 10 * time.Millisecond), ok: true})
	}
	rates := windowRates(calls, func(int) float64 { return 1 }, start, 2*time.Second, 2, c.seconds)
	if math.Abs(rates[0]-100) > 1e-6 || math.Abs(rates[1]-200) > 1e-6 {
		t.Errorf("rates %v, want [100 200]", rates)
	}
	due := start.Add(1200 * time.Millisecond)
	lat := vmLatencies([]call{{due: due, end: due.Add(200 * time.Millisecond), ok: true}, {due: due, end: due.Add(time.Second)}}, c)
	if len(lat) != 1 || lat[0] != 100*time.Millisecond {
		t.Errorf("latencies %v, want [100ms]", lat)
	}
}

// TestVMClockSamplesHost: on Linux the live clock samples /proc/stat
// and never reads more than wall time.
func TestVMClockSamplesHost(t *testing.T) {
	if _, ok := readCPUSample(); !ok {
		t.Skip("no /proc/stat")
	}
	c := startVMClock()
	from := time.Now()
	time.Sleep(20 * time.Millisecond)
	to := time.Now()
	c.stop()
	c.stop()
	if len(c.samples) < 2 {
		t.Fatalf("%d samples, want at least 2", len(c.samples))
	}
	if got, wall := c.ran(from, to), to.Sub(from); got < 0 || got > wall {
		t.Errorf("ran %v over a wall interval of %v", got, wall)
	}
}
