package core

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/countsketch"
	"repro/internal/sketchapi"
)

// Engine serialization magics: v1 is the fixed-horizon layout, v2
// appends the exponential-decay state (λ, N_eff at the current and
// previous step). Fixed-horizon engines keep writing v1
// byte-identically; decayed engines — including λ = 1 unbounded mode,
// whose semantics must survive a restore — write v2.
const (
	engineMagic   = uint32(0xA5C5E001)
	engineMagicV2 = uint32(0xA5C5E002)
)

// WriteTo serializes the engine — schedule, step position, counters,
// decay state and the underlying sketch — so a long sketching job can
// be checkpointed and resumed (or shipped for offline retrieval).
func (e *Engine) WriteTo(w io.Writer) (int64, error) {
	return e.writeTo(w, e.sk.WriteTo)
}

// WriteToFolded implements sketchapi.Engine: identical engine
// header, sketch streamed pre-folded to the given level.
func (e *Engine) WriteToFolded(w io.Writer, level int) (int64, error) {
	return e.writeTo(w, func(w io.Writer) (int64, error) { return e.sk.WriteToFolded(w, level) })
}

func (e *Engine) writeTo(w io.Writer, writeSketch func(io.Writer) (int64, error)) (int64, error) {
	hdr := make([]byte, 4+8*8+1, 4+8*11+1)
	binary.LittleEndian.PutUint32(hdr[0:], engineMagic)
	binary.LittleEndian.PutUint64(hdr[4:], uint64(e.hp.T0))
	binary.LittleEndian.PutUint64(hdr[12:], math.Float64bits(e.hp.Theta))
	binary.LittleEndian.PutUint64(hdr[20:], math.Float64bits(e.hp.Tau0))
	binary.LittleEndian.PutUint64(hdr[28:], uint64(e.hp.T))
	binary.LittleEndian.PutUint64(hdr[36:], uint64(e.t))
	binary.LittleEndian.PutUint64(hdr[44:], e.offeredSampling)
	binary.LittleEndian.PutUint64(hdr[52:], e.insertedSampling)
	binary.LittleEndian.PutUint64(hdr[60:], math.Float64bits(e.tau))
	if e.absolute {
		hdr[68] = 1
	}
	if e.decay {
		binary.LittleEndian.PutUint32(hdr[0:], engineMagicV2)
		hdr = hdr[:4+8*11+1]
		binary.LittleEndian.PutUint64(hdr[69:], math.Float64bits(e.lambda))
		binary.LittleEndian.PutUint64(hdr[77:], math.Float64bits(e.neff))
		binary.LittleEndian.PutUint64(hdr[85:], math.Float64bits(e.prevNeff))
	}
	n, err := w.Write(hdr)
	total := int64(n)
	if err != nil {
		return total, err
	}
	sn, err := writeSketch(w)
	return total + sn, err
}

// ReadEngineFrom reconstructs an engine serialized by WriteTo (either
// format version). The caller resumes by continuing BeginStep/Offer
// from the recorded step.
func ReadEngineFrom(r io.Reader) (*Engine, error) {
	hdr := make([]byte, 4+8*8+1)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("core: reading engine header: %w", err)
	}
	magic := binary.LittleEndian.Uint32(hdr[0:])
	if magic != engineMagic && magic != engineMagicV2 {
		return nil, fmt.Errorf("core: bad engine magic")
	}
	e := &Engine{
		hp: Hyperparams{
			T0:    int(binary.LittleEndian.Uint64(hdr[4:])),
			Theta: math.Float64frombits(binary.LittleEndian.Uint64(hdr[12:])),
			Tau0:  math.Float64frombits(binary.LittleEndian.Uint64(hdr[20:])),
			T:     int(binary.LittleEndian.Uint64(hdr[28:])),
		},
		t:                int(binary.LittleEndian.Uint64(hdr[36:])),
		offeredSampling:  binary.LittleEndian.Uint64(hdr[44:]),
		insertedSampling: binary.LittleEndian.Uint64(hdr[52:]),
		tau:              math.Float64frombits(binary.LittleEndian.Uint64(hdr[60:])),
		absolute:         hdr[68] == 1,
		lambda:           1,
	}
	if magic == engineMagicV2 {
		var ext [24]byte
		if _, err := io.ReadFull(r, ext[:]); err != nil {
			return nil, fmt.Errorf("core: reading engine decay state: %w", err)
		}
		e.decay = true
		e.lambda = math.Float64frombits(binary.LittleEndian.Uint64(ext[0:]))
		e.neff = math.Float64frombits(binary.LittleEndian.Uint64(ext[8:]))
		e.prevNeff = math.Float64frombits(binary.LittleEndian.Uint64(ext[16:]))
		if err := sketchapi.ValidateDecay(e.lambda); err != nil {
			return nil, fmt.Errorf("core: corrupt engine decay factor: %w", err)
		}
	}
	sk, err := countsketch.ReadFrom(r)
	if err != nil {
		return nil, err
	}
	e.sk = sk
	if e.hp.T <= 0 || e.hp.T0 < 0 || e.hp.T0 > e.hp.T {
		return nil, fmt.Errorf("core: corrupt schedule %+v", e.hp)
	}
	e.invT = 1 / float64(e.hp.T)
	e.sampling = e.t > e.hp.T0
	if e.decay {
		e.neff0 = sketchapi.AdvanceEffective(0, e.lambda, e.hp.T0)
	}
	return e, nil
}
