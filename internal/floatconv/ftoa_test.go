package floatconv

import (
	"bytes"
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"testing"
)

// strconvFloat is AppendFloat as it was written over strconv before the
// Schubfach kernel: the reference every test here compares against.
func strconvFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1] // e-07 → e-7
		dst = dst[:n-1]
	}
	return dst
}

// neighbours returns f and the float64s on either side of it.
func neighbours(f float64) []float64 {
	return []float64{math.Nextafter(f, math.Inf(-1)), f, math.Nextafter(f, math.Inf(1))}
}

// boundaryFloats are the values where the kernel changes course: the
// layout cut-offs, the ends of the normal range, the subnormals it
// leaves to strconv, and the powers of two (the irregular spacing).
func boundaryFloats() []float64 {
	fs := []float64{0, math.Copysign(0, -1), math.MaxFloat64, 0x1p-1022, 1, 0.1, 2.5}
	fs = append(fs, neighbours(1e-6)...)
	fs = append(fs, neighbours(1e21)...)
	fs = append(fs, neighbours(0x1p-1022)...)
	fs = append(fs, neighbours(0x1p53)...)
	for b := uint64(1); b < 64; b++ {
		fs = append(fs, math.Float64frombits(b), math.Float64frombits(1<<52-b))
	}
	return fs
}

// TestAppendFloatMatchesStrconv pins the kernel to strconv's bytes on
// every normal binary exponent (the smallest, the largest and random
// mantissas), every power of ten and its neighbours, the boundaries, a
// run of subnormals, integers, the ties to even of [2^50, 2^51) and 1M
// uniform [0,1) doubles, the benchmark data's shape.
func TestAppendFloatMatchesStrconv(t *testing.T) {
	rnd := rand.New(rand.NewSource(41))
	var got, want []byte
	check := func(f float64) {
		for _, v := range []float64{f, -f} {
			got, want = AppendFloat(got[:0], v), strconvFloat(want[:0], v)
			if !bytes.Equal(got, want) {
				t.Fatalf("AppendFloat(%#x) = %s, strconv writes %s", math.Float64bits(v), got, want)
			}
		}
	}
	for be := uint64(1); be < 0x7ff; be++ {
		check(math.Float64frombits(be << 52))
		check(math.Float64frombits(be<<52 | 1<<52 - 1))
		for range 64 {
			check(math.Float64frombits(be<<52 | rnd.Uint64()>>12))
		}
	}
	for p := -323; p <= 308; p++ {
		f, err := strconv.ParseFloat("1e"+strconv.Itoa(p), 64)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range neighbours(f) {
			check(v)
		}
	}
	for _, f := range boundaryFloats() {
		check(f)
	}
	for b := uint64(1); b < 1<<52; b = b*3 + 1 {
		check(math.Float64frombits(b))
	}
	for i := range 10000 {
		check(float64(i))
		check(float64(rnd.Int63n(1 << 53)))
	}
	// c·2^-2 with c odd lies halfway between two 17-digit decimals.
	for range 10000 {
		check(math.Float64frombits((1075-2)<<52 | rnd.Uint64()>>12 | 1))
	}
	for range 1_000_000 {
		check(rnd.Float64())
	}
}

// TestFloorLogs checks the kernel's integer logarithms on every exponent
// it meets and its table on every k, exactly, with math/big.
func TestFloorLogs(t *testing.T) {
	pow := func(base, e int) *big.Rat { // base^e
		p := new(big.Int).Exp(big.NewInt(int64(base)), big.NewInt(int64(max(e, -e))), nil)
		if e < 0 {
			return new(big.Rat).SetFrac(big.NewInt(1), p)
		}
		return new(big.Rat).SetInt(p)
	}
	// floorLog reports whether base^k ≤ x < base^(k+1).
	floorLog := func(x *big.Rat, base, k int) bool {
		return pow(base, k).Cmp(x) <= 0 && x.Cmp(pow(base, k+1)) < 0
	}
	threeQuarters := big.NewRat(3, 4)
	for q := -1074; q <= 971; q++ {
		if !floorLog(pow(2, q), 10, flog10pow2(q)) {
			t.Fatalf("flog10pow2(%d) = %d", q, flog10pow2(q))
		}
		x := new(big.Rat).Mul(threeQuarters, pow(2, q))
		if !floorLog(x, 10, flog10threeQuartersPow2(q)) {
			t.Fatalf("flog10threeQuartersPow2(%d) = %d", q, flog10threeQuartersPow2(q))
		}
	}
	for k := gMinK; k <= gMaxK; k++ {
		f := flog2pow10(-k)
		if !floorLog(pow(10, -k), 2, f) {
			t.Fatalf("flog2pow10(%d) = %d", -k, f)
		}
		// (g-1)·2^r ≤ 10^-k < g·2^r, where 2^125 ≤ g-1 < 2^126 and so
		// r = f - 125.
		g := new(big.Int).Lsh(new(big.Int).SetUint64(gTable[k-gMinK][0]), 63)
		g.Or(g, new(big.Int).SetUint64(gTable[k-gMinK][1]))
		lo := new(big.Rat).Mul(new(big.Rat).SetInt(new(big.Int).Sub(g, big.NewInt(1))), pow(2, f-125))
		hi := new(big.Rat).Mul(new(big.Rat).SetInt(g), pow(2, f-125))
		if ten := pow(10, -k); lo.Cmp(ten) > 0 || ten.Cmp(hi) >= 0 || gTable[k-gMinK][1]>>63 != 0 {
			t.Fatalf("gTable[k=%d] = %#x:%#x does not bracket 10^%d", k, gTable[k-gMinK][0], gTable[k-gMinK][1], -k)
		}
	}
}

// FuzzAppendFloat compares the kernel with strconv on raw bit patterns.
// NaN and ±Inf are skipped: AppendFloat takes finite floats only.
func FuzzAppendFloat(f *testing.F) {
	for _, v := range boundaryFloats() {
		f.Add(math.Float64bits(v))
	}
	f.Add(math.Float64bits(0.3))
	f.Fuzz(func(t *testing.T, b uint64) {
		v := math.Float64frombits(b)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Skip()
		}
		if got, want := AppendFloat(nil, v), strconvFloat(nil, v); !bytes.Equal(got, want) {
			t.Fatalf("AppendFloat(%#x) = %s, strconv writes %s", b, got, want)
		}
	})
}

// BenchmarkAppendFloat times one float of an answer through strconv and
// through the kernel, on uniform [0,1) doubles (the benchmark data's
// coordinates) and on random normal bit patterns.
func BenchmarkAppendFloat(b *testing.B) {
	rnd := rand.New(rand.NewSource(1))
	inputs := []struct {
		name string
		gen  func() float64
	}{
		{"unit", rnd.Float64},
		{"bits", func() float64 {
			return math.Float64frombits(rnd.Uint64()%(0x7fe<<52) + 1<<52)
		}},
	}
	for _, in := range inputs {
		vals := make([]float64, 4096)
		for i := range vals {
			vals[i] = in.gen()
		}
		for _, enc := range []struct {
			name string
			fn   func([]byte, float64) []byte
		}{{"strconv", strconvFloat}, {"kernel", AppendFloat}} {
			b.Run(in.name+"/"+enc.name, func(b *testing.B) {
				buf := make([]byte, 0, 32)
				for i := 0; i < b.N; i++ {
					buf = enc.fn(buf[:0], vals[i%len(vals)])
				}
			})
		}
	}
}
