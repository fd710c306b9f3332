package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"

	"repro/internal/stream"
)

// arenaPoolBytes caps the footprint of an arena the pool keeps. A
// request near MaxBodyBytes grows its arena to tens of MiB; pooling
// that would pin the burst's memory for the process lifetime, so such
// arenas are left to the GC instead.
const arenaPoolBytes = 4 << 20

// ingestArena holds everything one POST /v1/ingest decode needs: the
// buffered body and the flat backing storage every decoded sample is a
// sub-slice of. The handler takes one from arenas and returns it only
// after Manager.IngestCtx has returned, which is safe because nothing
// below the handler keeps a sample: route copies every value into a
// shard rowBatch (the WAL logs those), and the warm-up buffer clones.
type ingestArena struct {
	body    []byte
	ints    []int
	vals    []float64
	samples []stream.Sample
}

var arenas = sync.Pool{New: func() any { return new(ingestArena) }}

// release returns a to the pool unless it grew past arenaPoolBytes.
func (a *ingestArena) release() {
	// A stream.Sample is two slice headers, 48 bytes.
	size := cap(a.body) + 8*cap(a.ints) + 8*cap(a.vals) + 48*cap(a.samples)
	if size <= arenaPoolBytes {
		arenas.Put(a)
	}
}

// readBody buffers the request body, capped at limit bytes. The bytes
// read before any error are kept: a body that overruns the cap still
// decodes when a complete value sits within the first limit bytes,
// exactly as it does under a streaming json.Decoder. The buffer is
// presized from Content-Length, but never past arenaPoolBytes on the
// header's word alone; larger bodies grow the buffer as they arrive.
func (a *ingestArena) readBody(w http.ResponseWriter, r *http.Request, limit int64) error {
	body := http.MaxBytesReader(w, r.Body, limit)
	buf := a.body[:0]
	if n := min(r.ContentLength, limit, arenaPoolBytes) + 1; n > 1 && int64(cap(buf)) < n {
		buf = make([]byte, 0, n)
	}
	for {
		buf = grow(buf)
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err != nil {
			a.body = buf
			if err == io.EOF {
				return nil
			}
			return err
		}
	}
}

// decode turns the buffered body into samples. The scanner commits only
// on the canonical form of the schema; any other input — escaped or
// differently cased keys, unknown or duplicate fields, null, strings,
// malformed numbers, truncation — is decoded again by encoding/json
// from the same bytes followed by readErr, so what is accepted, what is
// rejected and the error text all stay encoding/json's.
func (a *ingestArena) decode(readErr error) ([]stream.Sample, error) {
	var ok bool
	a.ints, a.vals, a.samples, ok = scan(a.body, a.ints[:0], a.vals[:0], a.samples[:0])
	if ok {
		return a.samples, nil
	}
	var src io.Reader = bytes.NewReader(a.body)
	if readErr != nil {
		src = io.MultiReader(src, errReader{readErr})
	}
	var req IngestRequest
	if err := json.NewDecoder(src).Decode(&req); err != nil {
		return nil, decodeError(err)
	}
	samples := make([]stream.Sample, len(req.Samples))
	for i, sj := range req.Samples {
		samples[i] = stream.Sample{Idx: sj.Idx, Val: sj.Val}
	}
	return samples, nil
}

// errReader replays a body read error after the buffered bytes.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// decodeError maps a body decode failure onto its status: 413 past the
// body cap, 400 otherwise.
func decodeError(err error) error {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return &httpError{status: http.StatusRequestEntityTooLarge,
			err: fmt.Errorf("request body exceeds %d bytes", tooBig.Limit)}
	}
	return badRequest("decoding body: %v", err)
}

// scan parses the canonical ingest body, appending to the given arenas:
//
//	{"samples":[{"idx":[…],"val":[…]},…]}
//
// with exact lower-case keys ("idx" and "val" in either order, each
// exactly once), JSON whitespace anywhere, and plain number literals:
// indices match -?(0|[1-9][0-9]*) and fit an int, values are any JSON
// number strconv.ParseFloat takes without error. Bytes after the
// top-level object are ignored, as json.Decoder.Decode ignores them.
// It reports false on anything else, leaving the answer to the
// encoding/json fallback. The arenas come back grown either way, so the
// pool keeps their capacity.
func scan(body []byte, ints []int, vals []float64, samples []stream.Sample) ([]int, []float64, []stream.Sample, bool) {
	sc := scanner{b: body}
	if !sc.next('{') || !sc.key("samples") || !sc.next('[') {
		return ints, vals, samples, false
	}
	if !sc.next(']') {
		for {
			if !sc.next('{') {
				return ints, vals, samples, false
			}
			i0, v0 := len(ints), len(vals)
			var haveIdx, haveVal, ok bool
			for f := 0; f < 2; f++ {
				if f == 1 && !sc.next(',') {
					return ints, vals, samples, false
				}
				switch {
				case !haveIdx && sc.key("idx"):
					haveIdx = true
					ints, ok = sc.ints(ints)
				case !haveVal && sc.key("val"):
					haveVal = true
					vals, ok = sc.floats(vals)
				default:
					ok = false
				}
				if !ok {
					return ints, vals, samples, false
				}
			}
			if !sc.next('}') {
				return ints, vals, samples, false
			}
			// Lengths only: the arenas may still move as they grow, so
			// the samples are re-sliced from their final backing below.
			samples = append(grow(samples), stream.Sample{Idx: ints[i0:], Val: vals[v0:]})
			if sc.next(']') {
				break
			}
			if !sc.next(',') {
				return ints, vals, samples, false
			}
		}
	}
	if !sc.next('}') {
		return ints, vals, samples, false
	}
	var oi, ov int
	for k := range samples {
		ni, nv := len(samples[k].Idx), len(samples[k].Val)
		samples[k] = stream.Sample{Idx: ints[oi : oi+ni : oi+ni], Val: vals[ov : ov+nv : ov+nv]}
		oi, ov = oi+ni, ov+nv
	}
	return ints, vals, samples, true
}

// grow makes room for one more element, doubling from a floor of 1024:
// a fresh or re-grown arena reaches a large request's size in a few
// steps, where append's 1.25× growth of large slices takes dozens.
func grow[S ~[]E, E any](s S) S {
	if len(s) < cap(s) {
		return s
	}
	return slices.Grow(s, max(len(s), 1024))
}

// scanner is a cursor over the buffered body.
type scanner struct {
	b []byte
	i int
}

// skip advances past JSON whitespace.
func (sc *scanner) skip() {
	for sc.i < len(sc.b) {
		switch sc.b[sc.i] {
		case ' ', '\t', '\n', '\r':
			sc.i++
		default:
			return
		}
	}
}

// next consumes c after optional whitespace, reporting whether it was
// there.
func (sc *scanner) next(c byte) bool {
	sc.skip()
	if sc.i < len(sc.b) && sc.b[sc.i] == c {
		sc.i++
		return true
	}
	return false
}

// key consumes `"name":` when the next string literal is exactly name
// (no escapes), leaving the cursor put otherwise.
func (sc *scanner) key(name string) bool {
	sc.skip()
	i := sc.i
	if i+len(name)+2 > len(sc.b) || sc.b[i] != '"' || string(sc.b[i+1:i+1+len(name)]) != name || sc.b[i+1+len(name)] != '"' {
		return false
	}
	sc.i = i + len(name) + 2
	if !sc.next(':') {
		sc.i = i
		return false
	}
	return true
}

// ints appends a JSON array of integer literals to dst.
func (sc *scanner) ints(dst []int) ([]int, bool) {
	if !sc.next('[') {
		return dst, false
	}
	if sc.next(']') {
		return dst, true
	}
	for {
		sc.skip()
		v, ok := sc.int()
		if !ok {
			return dst, false
		}
		dst = append(grow(dst), v)
		if sc.next(']') {
			return dst, true
		}
		if !sc.next(',') {
			return dst, false
		}
	}
}

// int parses -?(0|[1-9][0-9]*) into an int, failing on overflow (where
// strconv.ParseInt, and so encoding/json, fails too). A fraction or
// exponent is left unconsumed, so the caller's delimiter check fails.
func (sc *scanner) int() (int, bool) {
	b, i := sc.b, sc.i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	start := i
	var u uint64
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		u = u*10 + uint64(b[i]-'0')
		i++
	}
	// ≤ 19 digits cannot wrap a uint64; the sign bounds are checked
	// below. Leading zeros are not JSON.
	if n := i - start; n == 0 || n > 19 || (n > 1 && b[start] == '0') {
		return 0, false
	}
	if neg {
		if u > math.MaxInt+1 {
			return 0, false
		}
		sc.i = i
		return int(-u), true
	}
	if u > math.MaxInt {
		return 0, false
	}
	sc.i = i
	return int(u), true
}

// floats appends a JSON array of number literals to dst.
func (sc *scanner) floats(dst []float64) ([]float64, bool) {
	if !sc.next('[') {
		return dst, false
	}
	if sc.next(']') {
		return dst, true
	}
	for {
		sc.skip()
		v, ok := sc.float()
		if !ok {
			return dst, false
		}
		dst = append(grow(dst), v)
		if sc.next(']') {
			return dst, true
		}
		if !sc.next(',') {
			return dst, false
		}
	}
}

// float checks the literal against the JSON number grammar and parses
// it with strconv.ParseFloat, as encoding/json does, so the bits match.
// A literal ParseFloat rejects (1e309 is out of range) fails here and
// fails there.
func (sc *scanner) float() (float64, bool) {
	b, i := sc.b, sc.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	j := digits(b, i)
	if j == i || (j-i > 1 && b[i] == '0') {
		return 0, false
	}
	i = j
	if i < len(b) && b[i] == '.' {
		if j = digits(b, i+1); j == i+1 {
			return 0, false
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if j = digits(b, i); j == i {
			return 0, false
		}
		i = j
	}
	v, err := strconv.ParseFloat(string(b[sc.i:i]), 64)
	if err != nil {
		return 0, false
	}
	sc.i = i
	return v, true
}

// digits returns the index of the first non-digit at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}
