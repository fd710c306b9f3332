package eval

import (
	"math"

	"repro/internal/sketchapi"
)

// SNRPoint is one measured point of the §7.1 SNR(t) series: the ratio
// E‖X_S‖²/E‖X_N‖² over the window of samples ending at T.
type SNRPoint struct {
	T   int
	SNR float64
}

// admitter is implemented by engines that gate insertions (ASCS); other
// engines ingest everything.
type admitter interface {
	Admits(key uint64) bool
}

// SNRProbe wraps an engine and measures the signal-to-noise ratio of the
// stream the engine actually ingests, using ground-truth signal labels.
// For gating engines only admitted offers count (X_S^(t), X_N^(t) of
// §7.1); for vanilla CS every offer counts, reproducing SNR_CS.
type SNRProbe struct {
	inner    sketchapi.Engine
	isSignal func(key uint64) bool
	every    int

	t        int
	winStart int
	sumSig   float64
	sumNoise float64
	points   []SNRPoint
}

// NewSNRProbe wraps inner, emitting one SNR point per `every` samples.
func NewSNRProbe(inner sketchapi.Engine, isSignal func(uint64) bool, every int) *SNRProbe {
	if every < 1 {
		every = 1
	}
	return &SNRProbe{inner: inner, isSignal: isSignal, every: every, winStart: 1}
}

// BeginStep flushes the window when due and forwards the step.
func (p *SNRProbe) BeginStep(t int) {
	if t > p.winStart && (t-p.winStart)%p.every == 0 {
		p.flush(t - 1)
		p.winStart = t
	}
	p.t = t
	p.inner.BeginStep(t)
}

func (p *SNRProbe) flush(endT int) {
	ratio := math.NaN()
	if p.sumNoise > 0 {
		ratio = p.sumSig / p.sumNoise
	}
	p.points = append(p.points, SNRPoint{T: endT, SNR: ratio})
	p.sumSig, p.sumNoise = 0, 0
}

// Offer accounts the admitted energy and forwards.
func (p *SNRProbe) Offer(key uint64, x float64) {
	admit := true
	if a, ok := p.inner.(admitter); ok {
		admit = a.Admits(key)
	}
	if admit {
		if p.isSignal(key) {
			p.sumSig += x * x
		} else {
			p.sumNoise += x * x
		}
	}
	p.inner.Offer(key, x)
}

// Points returns the completed windows, closing the current window if it
// has any mass.
func (p *SNRProbe) Points() []SNRPoint {
	if p.sumSig > 0 || p.sumNoise > 0 {
		p.flush(p.t)
		p.winStart = p.t + 1
	}
	return p.points
}
