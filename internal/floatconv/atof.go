// Package floatconv is the float64 codec of every decimal the server
// reads or writes: ParseFloat and ParsePrefix read a decimal exactly as
// strconv.ParseFloat(s, 64) does, and AppendFloat writes the shortest
// decimal that reads back, laid out as encoding/json lays it out. Both
// directions are bit-identical to the standard library; they only skip
// its generic front end (hex floats, underscores, inf and nan words, a
// byte loop per digit), which the inputs here never need, and hand
// every input they do not decide to strconv.
package floatconv

import (
	"math"
	"math/big"
	"math/bits"
	"strconv"
)

// ParseFloat returns what strconv.ParseFloat(string(s), 64) returns:
// the same bits and the same error, for every s.
func ParseFloat[S string | []byte](s S) (float64, error) {
	if f, n := ParsePrefix(s); n > 0 && n == len(s) {
		return f, nil
	}
	return strconv.ParseFloat(string(s), 64)
}

// ParsePrefix reads the plain decimal [+-]digits[.digits][(e|E)[+-]digits]
// at the start of s and returns its value and length: the value
// strconv.ParseFloat gives that prefix. n is 0 when s does not start
// with such a decimal and when the kernel leaves the value to strconv:
// more than 19 significant digits, a result outside the normal float64
// range, or one Eisel-Lemire cannot decide. A caller that finds the
// number followed by anything its own syntax does not allow there must
// also parse the field with strconv, as ParseFloat does.
func ParsePrefix[S string | []byte](s S) (f float64, n int) {
	i := 0
	neg := false
	if len(s) > 0 && (s[0] == '-' || s[0] == '+') {
		neg = s[0] == '-'
		i++
	}
	start := i
	for i < len(s) && s[i] == '0' { // leading zeros are not significant
		i++
	}
	sig := i
	man, i := digits(s, i, 0)
	nd := i - sig // significant digits read
	sawDigits := i > start
	exp := 0
	if i < len(s) && s[i] == '.' {
		i++
		frac := i
		if nd == 0 {
			for i < len(s) && s[i] == '0' {
				i++
			}
		}
		sig = i
		man, i = digits(s, i, man)
		nd += i - sig
		exp = frac - i
		sawDigits = sawDigits || i > frac
	}
	if !sawDigits || nd > 19 {
		return 0, 0
	}
	if i < len(s) && s[i]|0x20 == 'e' {
		i++
		eneg := false
		if i < len(s) && (s[i] == '-' || s[i] == '+') {
			eneg = s[i] == '-'
			i++
		}
		if i >= len(s) || s[i]-'0' > 9 {
			return 0, 0
		}
		e := 0
		for ; i < len(s) && s[i]-'0' <= 9; i++ {
			if e < 10000 { // far past any float64; the rest cannot matter
				e = e*10 + int(s[i]-'0')
			}
		}
		if eneg {
			e = -e
		}
		exp += e
	}
	f, ok := convert(man, exp, neg)
	if !ok {
		return 0, 0
	}
	return f, i
}

// digits reads the run of decimal digits at s[i:] onto man, eight at a
// time while eight are there, and returns man and the index after the
// run. Past 19 digits man wraps; the caller counts them and gives up.
func digits[S string | []byte](s S, i int, man uint64) (uint64, int) {
	for i+8 <= len(s) {
		v := uint64(s[i]) | uint64(s[i+1])<<8 | uint64(s[i+2])<<16 | uint64(s[i+3])<<24 |
			uint64(s[i+4])<<32 | uint64(s[i+5])<<40 | uint64(s[i+6])<<48 | uint64(s[i+7])<<56
		if !eightDigits(v) {
			break
		}
		man = man*1e8 + parseEight(v)
		i += 8
	}
	for ; i < len(s) && s[i]-'0' <= 9; i++ {
		man = man*10 + uint64(s[i]-'0')
	}
	return man, i
}

// eightDigits reports whether every byte of the little-endian word v is
// an ASCII digit: each high nibble is 3, and adding 6 carries out of no
// low nibble.
func eightDigits(v uint64) bool {
	return v&0xf0f0_f0f0_f0f0_f0f0|(v+0x0606_0606_0606_0606)&0xf0f0_f0f0_f0f0_f0f0>>4 == 0x3333_3333_3333_3333
}

// parseEight returns the value of the eight ASCII digits in v, the
// first in the lowest byte: pairs, then quads, then the whole are
// combined in the lanes of one word (the SWAR step of Lemire's
// fast_float).
func parseEight(v uint64) uint64 {
	const mask = 0x0000_00ff_0000_00ff
	v -= 0x3030_3030_3030_3030
	v = v*10 + v>>8 // each even byte: two digits
	v = (v&mask*(100+1000000<<32) + v>>16&mask*(1+10000<<32)) >> 32
	return uint64(uint32(v))
}

// pow10 holds the powers of ten a float64 holds exactly.
var pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// convert returns man·10^exp rounded to the nearest float64, ties to
// even, when it can decide it and the result is a normal float64 or
// zero.
func convert(man uint64, exp int, neg bool) (float64, bool) {
	if man == 0 {
		if neg {
			return math.Copysign(0, -1), true
		}
		return 0, true
	}
	// Clinger's fast path: both factors exact, so the one rounding is
	// the product's.
	if man < 1<<53 && -22 <= exp && exp <= 22 {
		f := float64(man)
		if neg {
			f = -f
		}
		if exp < 0 {
			return f / pow10[-exp], true
		}
		return f * pow10[exp], true
	}
	return eiselLemire(man, exp, neg)
}

// The rows of powTable, 10^minPow … 10^maxPow: past them a float64 of at
// most 19 significant digits is zero or infinite.
const (
	minPow = -348
	maxPow = 347
)

// powTable holds, for q in [minPow, maxPow], the 128 leading bits of
// 10^q rounded down, as hi, lo: 10^q ≈ (hi·2^64 + lo)·2^e with the top
// bit of hi set and e = ⌊q·log2 10⌋ - 127. init computes it exactly
// with math/big (≈ 11 KB), as ftoa.go computes gTable.
var powTable [maxPow - minPow + 1][2]uint64

func init() {
	var p, m, t big.Int
	ten, mask := big.NewInt(10), new(big.Int).SetUint64(math.MaxUint64)
	set := func(q int) {
		powTable[q-minPow] = [2]uint64{t.Rsh(&m, 64).Uint64(), t.And(&m, mask).Uint64()}
	}
	// q ≥ 0: the integer 10^q cut to its top 128 bits.
	p.SetInt64(1)
	for q := 0; q <= maxPow; q++ {
		if sh := p.BitLen() - 128; sh >= 0 {
			m.Rsh(&p, uint(sh))
		} else {
			m.Lsh(&p, uint(-sh))
		}
		set(q)
		p.Mul(&p, ten)
	}
	// q < 0: ⌊2^(b+127) / 10^-q⌋ with 2^(b-1) < 10^-q < 2^b lies
	// strictly between 2^127 and 2^128.
	p.SetInt64(1)
	for q := -1; q >= minPow; q-- {
		p.Mul(&p, ten)
		m.Quo(t.Lsh(big.NewInt(1), uint(p.BitLen()+127)), &p)
		set(q)
	}
}

// eiselLemire returns man·10^exp, man > 0, rounded to the nearest
// float64, or false when the 128-bit product leaves the rounding open,
// the exponent is past the table, or the result is not a normal float64
// (D. Lemire, "Number Parsing at a Gigabyte per Second", 2021, in the
// form of N. Tao's Wuffs and Go implementations).
func eiselLemire(man uint64, exp int, neg bool) (float64, bool) {
	if exp < minPow || exp > maxPow {
		return 0, false
	}
	row := &powTable[exp-minPow]
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	// The biased exponent of the result before the product's top bit is
	// known; 217706/2^16 is log2 10 to enough places.
	e2 := uint64(217706*exp>>16+64+1023) - uint64(clz)
	hi, lo := bits.Mul64(man, row[0])
	// All nine bits under the 54 kept are ones and the low word may have
	// carried into them: take the next 64 bits of 10^exp too.
	if hi&0x1ff == 0x1ff && lo+man < man {
		yhi, ylo := bits.Mul64(man, row[1])
		mhi, mlo := hi, lo+yhi
		if mlo < lo {
			mhi++
		}
		if mhi&0x1ff == 0x1ff && mlo+1 == 0 && ylo+man < man {
			return 0, false
		}
		hi, lo = mhi, mlo
	}
	top := hi >> 63
	m := hi >> (top + 9) // 54 bits
	e2 -= 1 ^ top
	// Exactly halfway between two float64s, as far as these bits tell.
	if lo == 0 && hi&0x1ff == 0 && m&3 == 1 {
		return 0, false
	}
	m += m & 1
	m >>= 1
	if m>>53 > 0 {
		m >>= 1
		e2++
	}
	if e2-1 >= 0x7ff-1 { // subnormal, zero or infinite
		return 0, false
	}
	b := e2<<52 | m&(1<<52-1)
	if neg {
		b |= 1 << 63
	}
	return math.Float64frombits(b), true
}
