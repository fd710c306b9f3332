package countsketch

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// checkMedian5Rows runs median5Rows over the lanes of tuples (laid out
// table-major, as the K = 5 gather writes them) and requires every
// lane's bits to equal the insertion sort's median of that lane's five
// values in row order.
func checkMedian5Rows(t *testing.T, tuples [][5]float64) {
	t.Helper()
	n := len(tuples)
	rows := make([]float64, 5*n)
	for i, x := range tuples {
		for e, v := range x {
			rows[e*n+i] = v
		}
	}
	out := make([]float64, n)
	median5Rows(rows, out)
	for i, x := range tuples {
		sorted := x
		want := medianInPlace(sorted[:])
		if math.Float64bits(out[i]) != math.Float64bits(want) {
			t.Fatalf("n=%d lane %d %v: median5Rows %v (%#x), insertion sort %v (%#x)",
				n, i, x, out[i], math.Float64bits(out[i]), want, math.Float64bits(want))
		}
	}
}

// median5Pool holds the values whose order or bits are delicate:
// ±0, ±Inf, NaNs with distinct payloads and signs, subnormals, the
// extremes, and small integers so ties recur.
func median5Pool() []float64 {
	negZero := math.Copysign(0, -1)
	return []float64{
		math.Inf(-1), -2, -1, negZero, 0, 1, 2, math.Inf(1), math.NaN(),
		-math.NaN(), math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0xfff8000000000abc),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.Float64frombits(0x000fffffffffffff),
		math.MaxFloat64, -math.MaxFloat64, 0.5, -0.5,
	}
}

// TestMedian5RowsMatchesInsertionSort pins the K = 5 gather's median
// against the insertion sort, bit for bit: all 9⁵ tuples over ±0, ±Inf,
// NaN and ties packed 32 lanes to a group, then random groups of every
// size from 1 to 70 (partial vector quads and scalar tails included)
// drawn from a pool with NaN payloads, subnormals and duplicates.
func TestMedian5RowsMatchesInsertionSort(t *testing.T) {
	pool := median5Pool()
	vals := pool[:9]
	var all [][5]float64
	var x [5]float64
	var walk func(i int)
	walk = func(i int) {
		if i == len(x) {
			all = append(all, x)
			return
		}
		for _, v := range vals {
			x[i] = v
			walk(i + 1)
		}
	}
	walk(0)
	for lo := 0; lo < len(all); lo += 32 {
		checkMedian5Rows(t, all[lo:min(lo+32, len(all))])
	}

	rng := rand.New(rand.NewSource(11))
	for rep := 0; rep < 300; rep++ {
		for n := 1; n <= 70; n++ {
			tuples := make([][5]float64, n)
			// Most groups are clean; some lanes repeat one pool value.
			special := rng.Intn(4)
			for i := range tuples {
				for e := range tuples[i] {
					if rng.Intn(8) < special {
						tuples[i][e] = pool[rng.Intn(len(pool))]
					} else {
						tuples[i][e] = rng.NormFloat64()
					}
				}
			}
			checkMedian5Rows(t, tuples)
		}
	}
}

// FuzzMedian5Rows checks median5Rows against the insertion sort on
// arbitrary groups: the fuzzer's bytes become 8-byte float64 patterns
// (NaN payloads, signed zeros and subnormals included) or, per a
// selector byte, pool values, and the group size is whatever the input
// fills, so partial groups are the common case.
func FuzzMedian5Rows(f *testing.F) {
	enc := func(vs ...float64) []byte {
		b := make([]byte, 0, 9*len(vs))
		for _, v := range vs {
			b = append(b, 0xff)
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(enc(1, 2, 3, 4, 5))
	f.Add(enc(0, math.Copysign(0, -1), 0, math.Copysign(0, -1), 0, 1, 1, 1, 1, 1))
	f.Add(enc(math.NaN(), 1, -1, math.Inf(1), math.Inf(-1), 2, 2, 2, -3, 3, 0, 0, 0, 0, 7, 1, 2, 3, 4, 5))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33})
	pool := median5Pool()
	f.Fuzz(func(t *testing.T, data []byte) {
		var vals []float64
		for len(data) > 0 {
			if data[0] != 0xff || len(data) < 9 {
				vals = append(vals, pool[int(data[0])%len(pool)])
				data = data[1:]
				continue
			}
			vals = append(vals, math.Float64frombits(binary.LittleEndian.Uint64(data[1:9])))
			data = data[9:]
		}
		n := len(vals) / 5
		if n == 0 {
			return
		}
		tuples := make([][5]float64, n)
		for i := range tuples {
			copy(tuples[i][:], vals[5*i:5*i+5])
		}
		checkMedian5Rows(t, tuples)
	})
}
