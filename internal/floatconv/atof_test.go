package floatconv

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// checkParse fails t unless ParseFloat reads s, as a string and as
// bytes, to strconv's bits with strconv's error, and ParsePrefix's
// prefix, when it takes one, to strconv's bits for that prefix.
func checkParse(t testing.TB, s string) {
	t.Helper()
	want, wantErr := strconv.ParseFloat(s, 64)
	same := func(how string, got float64, err error) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) || fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("%s(%q) = %v (%#x), %v; strconv: %v (%#x), %v", how, s,
				got, math.Float64bits(got), err, want, math.Float64bits(want), wantErr)
		}
	}
	got, err := ParseFloat(s)
	same("ParseFloat", got, err)
	got, err = ParseFloat([]byte(s))
	same("ParseFloat[[]byte]", got, err)
	if f, n := ParsePrefix([]byte(s)); n > 0 {
		if want, err := strconv.ParseFloat(s[:n], 64); err != nil || math.Float64bits(f) != math.Float64bits(want) {
			t.Fatalf("ParsePrefix(%q) = %v, %d; strconv reads %q as %v, %v", s, f, n, s[:n], want, err)
		}
	}
}

// edgeInputs are the texts where a reader can go wrong: signs and
// missing parts, the forms the kernel leaves to strconv, the ends of
// the float64 range, a halfway case, and digit runs past 19.
func edgeInputs() []string {
	in := []string{
		"", "-", "+", ".", "-.", "e5", ".e5", "0", "-0", "+0", "+1", "-1", ".5", "5.", "-.5e-3",
		"1e", "1e+", "1e-", "1E5", "1e+05", "1.5e", "1..5", "1.5.3", "1e5e5", "1e5.5", " 1", "1 ",
		"0x1p-2", "0X1P-2", "0x", "inf", "-Inf", "+INF", "infinity", "NaN", "nan", "1_0", "1_000.5",
		"0.0", "00000.00000", "0e999999999999", "-0e-999999", "000123", "0.000123", "1e0", "1e-0",
		"4.9e-324", "5e-324", "2.4703282292062327e-324", "2.2250738585072011e-308",
		"2.2250738585072014e-308", "1.7976931348623157e308", "1.7976931348623158e308",
		"1.7976931348623159e308", "1e23", "8.98846567431158e307", "9007199254740993",
		"9007199254740992", "9007199254740991", "4503599627370497.5", "1e22", "1e-22",
		"123456789012345678e-3", "1234567890123456789", "12345678901234567890", "0.1234567890123456789",
		"1e308", "1e309", "1e-323", "1e-324", "1e-400", "1e400", "-1e400", "1e-348", "1e347",
		"0.3", "0.30000000000000004", "7.0e-10", "1e", "0.5e+", "12,5", "1;2",
	}
	for _, n := range []int{20, 21, 25, 40, 100, 800} {
		in = append(in, strings.Repeat("9", n), "0."+strings.Repeat("3", n), "1"+strings.Repeat("0", n-1)+"e-"+strconv.Itoa(n),
			"1."+strings.Repeat("0", n), strings.Repeat("1", n)+"e-300")
	}
	return in
}

// TestParseFloatMatchesStrconv pins the reader to strconv: the edge
// inputs, the shortest 'g', 'e' and 'f' forms of random float64 bit
// patterns and of [0,1) values (the benchmark data's coordinates), and
// random 1–25-digit mantissas with exponents in [-350, 350].
func TestParseFloatMatchesStrconv(t *testing.T) {
	for _, s := range edgeInputs() {
		checkParse(t, s)
	}
	rnd := rand.New(rand.NewSource(52))
	var buf []byte
	for i := range 400_000 {
		v := rnd.Float64()
		if i%2 == 0 {
			v = math.Float64frombits(rnd.Uint64())
		}
		for _, format := range []byte{'g', 'e', 'f'} {
			buf = strconv.AppendFloat(buf[:0], v, format, -1, 64)
			checkParse(t, string(buf))
		}
	}
	for range 200_000 {
		buf = buf[:0]
		if rnd.Intn(2) == 0 {
			buf = append(buf, "+-"[rnd.Intn(2)])
		}
		for n := 1 + rnd.Intn(25); n > 0; n-- {
			buf = append(buf, byte('0'+rnd.Intn(10)))
		}
		if rnd.Intn(2) == 0 {
			buf = append(buf, '.')
			for n := rnd.Intn(10); n > 0; n-- {
				buf = append(buf, byte('0'+rnd.Intn(10)))
			}
		}
		buf = append(buf, "eE"[rnd.Intn(2)])
		buf = strconv.AppendInt(buf, int64(rnd.Intn(701)-350), 10)
		checkParse(t, string(buf))
	}
}

// TestPowersOfTen pins the table to the rows Go's
// strconv/eisel_lemire.go prints for 1e-348 (its first), 1e-1, 1e0, 1e43
// (its comment's example) and 1e347 (its last), and checks every row
// with math/big: the top bit is set and the row is 10^q's leading 128
// bits rounded down.
func TestPowersOfTen(t *testing.T) {
	for _, c := range []struct {
		q      int
		hi, lo uint64
	}{
		{-348, 0xFA8FD5A0081C0288, 0x1732C869CD60E453},
		{-1, 0xCCCCCCCCCCCCCCCC, 0xCCCCCCCCCCCCCCCC},
		{0, 0x8000000000000000, 0},
		{43, 0xE596B7B0C643C719, 0x6D9CCD05D0000000},
		{347, 0xD13EB46469447567, 0x4B7195F2D2D1A9FB},
	} {
		if got := powTable[c.q-minPow]; got != [2]uint64{c.hi, c.lo} {
			t.Errorf("1e%d row = %#x, want %#x", c.q, got, [2]uint64{c.hi, c.lo})
		}
	}
	for q := minPow; q <= maxPow; q++ {
		row := powTable[q-minPow]
		m := new(big.Int).Lsh(new(big.Int).SetUint64(row[0]), 64)
		m.Or(m, new(big.Int).SetUint64(row[1]))
		// 10^q = (m + δ)·2^e with 0 ≤ δ < 1, e = ⌊q·log2 10⌋ - 127.
		e := 217706*q>>16 - 127
		ten := new(big.Rat).SetInt(new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(max(q, -q))), nil))
		if q < 0 {
			ten.Inv(ten)
		}
		scale := new(big.Rat).SetInt(new(big.Int).Lsh(big.NewInt(1), uint(max(e, -e))))
		if e < 0 {
			scale.Inv(scale)
		}
		lo := new(big.Rat).Mul(new(big.Rat).SetInt(m), scale)
		hi := new(big.Rat).Mul(new(big.Rat).SetInt(new(big.Int).Add(m, big.NewInt(1))), scale)
		if row[0]>>63 == 0 || lo.Cmp(ten) > 0 || ten.Cmp(hi) >= 0 {
			t.Fatalf("1e%d row %#x is not 10^%d's leading bits rounded down", q, row, q)
		}
	}
}

// FuzzParseFloat compares the reader with strconv on any bytes.
func FuzzParseFloat(f *testing.F) {
	for _, s := range edgeInputs() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		checkParse(t, s)
	})
}

// BenchmarkParseFloat times one float through strconv and through the
// kernel, on the shortest forms of uniform [0,1) doubles (the benchmark
// data's coordinates) and of random normal bit patterns.
func BenchmarkParseFloat(b *testing.B) {
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
		texts := make([][]byte, 4096)
		for i := range texts {
			texts[i] = strconv.AppendFloat(nil, in.gen(), 'g', -1, 64)
		}
		for _, dec := range []struct {
			name string
			fn   func([]byte) (float64, error)
		}{
			{"strconv", func(s []byte) (float64, error) { return strconv.ParseFloat(string(s), 64) }},
			{"kernel", ParseFloat[[]byte]},
		} {
			b.Run(in.name+"/"+dec.name, func(b *testing.B) {
				var sum float64
				for i := 0; i < b.N; i++ {
					f, _ := dec.fn(texts[i%len(texts)])
					sum += f
				}
				sink = sum
			})
		}
	}
}

var sink float64
