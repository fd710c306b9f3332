package main

import (
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// vmSampleEvery is the vmClock's sampling interval: 50 ticks of the two
// vCPUs' accounting, short against the stretches the host stays slow.
const vmSampleEvery = 250 * time.Millisecond

// vmClock measures the time this virtual machine actually ran. The
// reference host is a VM whose vCPUs share physical cores with other
// tenants; while those are busy the hypervisor deschedules the VM, and
// the guest kernel counts the lost time as steal in /proc/stat. On the
// two-vCPU reference host, over ten minutes of dense-cs runs, the stolen
// share of the vCPU time moved between 1% and 29%, and closed-loop
// throughput in wall time moved with it (7.0 to 4.3 M pairs/s). The
// clock samples the aggregate cpu line and scales each sampling
// interval by the share of the non-idle vCPU time that was not stolen,
// so a timing read on it leaves out the waits for a physical core.
type vmClock struct {
	done     chan struct{}
	wg       sync.WaitGroup
	stopOnce sync.Once
	// samples is written by the sampler until stop returns, and only
	// read afterwards.
	samples []cpuSample
}

// cpuSample is the aggregate cpu line at one instant: busy is user,
// nice, system, irq and softirq ticks, steal the stolen ticks.
type cpuSample struct {
	at          time.Time
	busy, steal int64
}

// startVMClock starts sampling /proc/stat now. Where it is unreadable
// the clock reads wall time.
func startVMClock() *vmClock {
	c := &vmClock{done: make(chan struct{})}
	c.sample()
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		tick := time.NewTicker(vmSampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-c.done:
				return
			case <-tick.C:
				c.sample()
			}
		}
	}()
	return c
}

// stop takes a last sample and ends the sampler; the clock may be read
// only after it. It is safe to call again.
func (c *vmClock) stop() {
	c.stopOnce.Do(func() {
		close(c.done)
		c.wg.Wait()
		c.sample()
	})
}

func (c *vmClock) sample() {
	if s, ok := readCPUSample(); ok {
		c.samples = append(c.samples, s)
	}
}

// readCPUSample parses the aggregate cpu line of /proc/stat: user nice
// system idle iowait irq softirq steal ... (guest time is already in
// user).
func readCPUSample() (cpuSample, bool) {
	now := time.Now()
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuSample{}, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuSample{}, false
	}
	var v [8]int64
	for i := range v {
		if v[i], err = strconv.ParseInt(f[i+1], 10, 64); err != nil {
			return cpuSample{}, false
		}
	}
	return cpuSample{at: now, busy: v[0] + v[1] + v[2] + v[5] + v[6], steal: v[7]}, true
}

// running returns the share of sampling interval i (between samples i
// and i+1) that the VM ran: busy ÷ (busy + steal), 1 when it idled.
func (c *vmClock) running(i int) float64 {
	a, b := c.samples[i], c.samples[i+1]
	busy, steal := b.busy-a.busy, b.steal-a.steal
	if busy+steal <= 0 {
		return 1
	}
	return float64(busy) / float64(busy+steal)
}

// ran returns the part of the wall interval [from, to] that the VM ran.
// Time before the first or after the last sample takes the share of the
// nearest sampling interval.
func (c *vmClock) ran(from, to time.Time) time.Duration {
	n := len(c.samples)
	if n < 2 || !to.After(from) {
		return to.Sub(from)
	}
	var total float64
	for i := 0; i+1 < n; i++ {
		lo, hi := c.samples[i].at, c.samples[i+1].at
		if i == 0 {
			lo = minTime(lo, from)
		}
		if i+2 == n {
			hi = maxTime(hi, to)
		}
		lo, hi = maxTime(lo, from), minTime(hi, to)
		if hi.After(lo) {
			total += float64(hi.Sub(lo)) * c.running(i)
		}
	}
	return time.Duration(total)
}

// seconds is ran in seconds.
func (c *vmClock) seconds(from, to time.Time) float64 { return c.ran(from, to).Seconds() }

// wallSeconds is the wall-clock counterpart of vmClock.seconds.
func wallSeconds(from, to time.Time) float64 { return to.Sub(from).Seconds() }

func minTime(a, b time.Time) time.Time {
	if a.Before(b) {
		return a
	}
	return b
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}
