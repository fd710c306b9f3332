package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stats"
)

// call is one timed request. due is when the schedule wanted it sent
// (the send time itself in a closed loop); latency runs from due, so a
// stall is charged to every request queued behind it. ready is when the
// generator was free to send it: the due time in an open loop, the
// previous response on the same connection in a closed loop.
type call struct {
	ready, due, sent, end time.Time
	ok                    bool
}

func (c call) latency() time.Duration { return c.end.Sub(c.due) }

// lag is how late the generator sent the request: the open loop's
// schedule slip, or in a closed loop the client's own turnaround.
func (c call) lag() time.Duration { return c.sent.Sub(c.ready) }

// clock abstracts time for the open-loop scheduler, so the due-time
// accounting can be tested with a fake clock.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

type realClock struct{}

func (realClock) Now() time.Time        { return time.Now() }
func (realClock) Sleep(d time.Duration) { time.Sleep(d) }

// openLoop issues requests on a fixed schedule, one at a time on one
// connection: request i is due at start + i·interval and is sent at its
// due time or, when the previous response came back late, immediately.
// Scheduling stops at the first due time at or past deadline, or after
// limit requests. do performs request i and reports success.
func openLoop(clk clock, start time.Time, interval time.Duration, deadline time.Time, limit int, do func(i int) bool) []call {
	var out []call
	for i := 0; i < limit; i++ {
		due := start.Add(time.Duration(i) * interval)
		if !due.Before(deadline) {
			break
		}
		if now := clk.Now(); now.Before(due) {
			clk.Sleep(due.Sub(now))
		}
		sent := clk.Now()
		ok := do(i)
		out = append(out, call{ready: due, due: due, sent: sent, end: clk.Now(), ok: ok})
	}
	return out
}

// closedLoop runs conns workers that each send request i, wait for the
// answer and take the next index, until deadline passes or the n
// requests are used up. The result is ordered by request index.
func closedLoop(conns, n int, deadline time.Time, do func(i int) bool) []call {
	out := make([]call, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ready := time.Now()
			for {
				if !time.Now().Before(deadline) {
					return
				}
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				// A closed loop has no schedule: latency runs from the
				// send itself.
				sent := time.Now()
				ok := do(i)
				end := time.Now()
				out[i] = call{ready: ready, due: sent, sent: sent, end: end, ok: ok}
				ready = end
			}
		}()
	}
	wg.Wait()
	used := int(min(next.Load(), int64(n)))
	return out[:used]
}

// windowRates splits [start, start+span) into n equal windows and
// returns, per window, the weight of the successful calls completed in
// it divided by the window's seconds as secs reads them (wallSeconds or
// a vmClock's). The completed weight is interpolated linearly between
// consecutive completions, so a window's rate does not jump by a whole
// request when a completion lands on one side of its edge or the other.
func windowRates(calls []call, weight func(i int) float64, start time.Time, span time.Duration, n int, secs func(from, to time.Time) float64) []float64 {
	idx := make([]int, 0, len(calls))
	for i, c := range calls {
		if c.ok && !c.end.Before(start) {
			idx = append(idx, i)
		}
	}
	sort.Slice(idx, func(a, b int) bool { return calls[idx[a]].end.Before(calls[idx[b]].end) })
	// Knots of the cumulative completed weight: (0, 0), then one per
	// completion.
	ts, cum := []float64{0}, []float64{0}
	for _, i := range idx {
		ts = append(ts, calls[i].end.Sub(start).Seconds())
		cum = append(cum, cum[len(cum)-1]+weight(i))
	}
	at := func(t float64) float64 {
		k := sort.SearchFloat64s(ts, t)
		switch {
		case k == len(ts):
			return cum[k-1]
		case ts[k] == t:
			return cum[k]
		}
		return cum[k-1] + (cum[k]-cum[k-1])*(t-ts[k-1])/(ts[k]-ts[k-1])
	}
	w := span.Seconds() / float64(n)
	edge := func(k int) time.Time { return start.Add(time.Duration(float64(k) * w * float64(time.Second))) }
	rates := make([]float64, n)
	for k := range rates {
		rates[k] = (at(float64(k+1)*w) - at(float64(k)*w)) / secs(edge(k), edge(k+1))
	}
	return rates
}

// quantiles are the percentiles the tail rule may report, highest first.
var quantiles = []float64{0.999, 0.99, 0.975, 0.95, 0.9, 0.75, 0.5}

// tailQuantile returns the highest reportable percentile for n samples:
// the highest with at least ten samples beyond it.
func tailQuantile(n int) (float64, bool) {
	for _, q := range quantiles {
		if float64(n)*(1-q) >= 10-1e-9 {
			return q, true
		}
	}
	return 0, false
}

// dist is a sorted latency sample in milliseconds.
type dist []float64

func newDist(ds []time.Duration) dist {
	out := make(dist, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

// p50 returns the median (0 when empty).
func (d dist) p50() float64 {
	if len(d) == 0 {
		return 0
	}
	return stats.QuantileSorted(d, 0.5)
}

// tail returns the value at q, capped by the tail rule: with too few
// samples for q it reports the highest supported percentile instead,
// and the label says which one was reported.
func (d dist) tail(q float64) (float64, string) {
	top, ok := tailQuantile(len(d))
	if !ok {
		return d.p50(), "p50"
	}
	q = min(q, top)
	return stats.QuantileSorted(d, q), pctLabel(q)
}

func pctLabel(q float64) string { return fmt.Sprintf("p%g", math.Round(q*1000)/10) }

// latencies splits calls into successful latencies and the failure
// count.
func latencies(cs []call) (ok []time.Duration, failed int) {
	for _, c := range cs {
		if c.ok {
			ok = append(ok, c.latency())
		} else {
			failed++
		}
	}
	return ok, failed
}

// vmLatencies returns the latencies of the successful calls read on the
// VM clock.
func vmLatencies(cs []call, vm *vmClock) []time.Duration {
	var out []time.Duration
	for _, c := range cs {
		if c.ok {
			out = append(out, vm.ran(c.due, c.end))
		}
	}
	return out
}
