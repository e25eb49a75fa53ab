package floatconv

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
	"strconv"
)

// The writing direction: the shortest decimal that reads back as a
// float64, found by Schubfach (R. Giulietti, "The Schubfach way to
// render doubles", 2020, the algorithm behind Java 19's Double.toString)
// and laid out as encoding/json lays it out. For every
// normal float64 it picks the digits strconv.AppendFloat(…, -1, 64)
// picks: the shortest decimal inside the rounding interval, the closest
// one to the value when several have that length, ties to even. Zero
// and the subnormals still go through strconv.

// AppendFloat appends a finite f as encoding/json writes a float64: the
// shortest decimal that reads back as f, in exponent form below 1e-6
// and from 1e21 on, with a one-digit negative exponent not padded to
// two.
func AppendFloat(dst []byte, f float64) []byte {
	b := math.Float64bits(f)
	be := int(b>>52) & 0x7ff
	switch {
	case f == 0:
		return strconv.AppendFloat(dst, f, 'f', -1, 64)
	case be == 0: // a subnormal, so below 1e-6
		return strconv.AppendFloat(dst, f, 'e', -1, 64)
	}
	if b>>63 != 0 {
		dst = append(dst, '-')
	}
	digits, exp := shortest(be, b&(1<<52-1))
	abs := math.Abs(f)
	return appendDecimal(dst, digits, exp, abs < 1e-6 || abs >= 1e21)
}

// gMinK and gMaxK bound k = ⌊log10 2^q⌋ over the normal float64s, whose
// binary exponent q runs from -1074 to 971.
const (
	gMinK = -324
	gMaxK = 292
)

// gTable holds, for k in [gMinK, gMaxK], the 126-bit g = ⌊β⌋+1 where
// 10^-k = β·2^r and 2^125 ≤ β < 2^126, split as g = g[0]·2^63 + g[1].
// init computes it exactly with math/big (≈ 10 KB, well under 1 ms).
var gTable [gMaxK - gMinK + 1][2]uint64

func init() {
	var p, g, lo big.Int
	one, ten, mask := big.NewInt(1), big.NewInt(10), big.NewInt(math.MaxInt64)
	set := func(k int) {
		g.Add(&g, one)
		gTable[k-gMinK] = [2]uint64{lo.Rsh(&g, 63).Uint64(), lo.And(&g, mask).Uint64()}
	}
	// k ≤ 0: β = 10^-k · 2^-r, the integer shifted to 126 bits.
	p.SetInt64(1)
	for k := 0; k >= gMinK; k-- {
		if sh := p.BitLen() - 126; sh >= 0 {
			g.Rsh(&p, uint(sh))
		} else {
			g.Lsh(&p, uint(-sh))
		}
		set(k)
		p.Mul(&p, ten)
	}
	// k > 0: β = 2^-r / 10^k with -r = 125 + bitlen(10^k).
	p.SetInt64(1)
	for k := 1; k <= gMaxK; k++ {
		p.Mul(&p, ten)
		g.Quo(g.Lsh(one, uint(125+p.BitLen())), &p)
		set(k)
	}
}

// flog10pow2 is ⌊log10 2^e⌋, flog10threeQuartersPow2 is ⌊log10(¾·2^e)⌋
// and flog2pow10 is ⌊log2 10^e⌋, each exact over the exponents of
// float64 (TestFloorLogs checks every one).
func flog10pow2(e int) int              { return (e * 661971961083) >> 41 }
func flog10threeQuartersPow2(e int) int { return (e*661971961083 - 274743187321) >> 41 }
func flog2pow10(e int) int              { return (e * 1741647) >> 19 }

// shortest returns the shortest decimal digits·10^exp inside the
// rounding interval of the normal float64 with biased exponent be and
// fraction bits frac, the closest to it when several have that length
// (ties to even). digits may end in zeros.
func shortest(be int, frac uint64) (digits uint64, exp int) {
	c := 1<<52 | frac
	q := be - 1075
	out := c & 1 // 1 when c is odd: the interval then excludes its bounds
	cb := c << 2
	cbr := cb + 2
	var cbl uint64
	var k int
	if frac != 0 || be == 1 {
		cbl, k = cb-2, flog10pow2(q)
	} else {
		// A power of two: the float64 below is half as far as the one
		// above.
		cbl, k = cb-1, flog10threeQuartersPow2(q)
	}
	h := q + flog2pow10(-k) + 2
	g := &gTable[k-gMinK]
	// The lower bound, the value and the upper bound, times 4·10^-k,
	// rounded to odd.
	vbl := rop(g[0], g[1], cbl<<h)
	vb := rop(g[0], g[1], cb<<h)
	vbr := rop(g[0], g[1], cbr<<h)

	// At most one multiple of 10^(k+1) is in the interval: take it if it
	// is there, one digit fewer than s.
	s := vb >> 2
	sp10 := s / 10 * 10
	tp10 := sp10 + 10
	upin := vbl+out <= sp10<<2
	wpin := tp10<<2+out <= vbr
	if upin != wpin {
		if upin {
			return sp10, k
		}
		return tp10, k
	}
	// Otherwise s or t = s+1, whichever is in the interval, or the one
	// closer to the value when both are.
	t := s + 1
	uin := vbl+out <= s<<2
	win := t<<2+out <= vbr
	if uin != win {
		if uin {
			return s, k
		}
		return t, k
	}
	if cmp := int64(vb - (s+t)<<1); cmp < 0 || cmp == 0 && s&1 == 0 {
		return s, k
	}
	return t, k
}

// rop is the paper's round-to-odd product: ⌊g·cp / 2^127⌋, with its
// lowest bit set when the bits below are not all zero.
func rop(g1, g0, cp uint64) uint64 {
	x1, _ := bits.Mul64(g0, cp)
	y1, y0 := bits.Mul64(g1, cp)
	z := y0>>1 + x1
	vbp := y1 + z>>63
	return vbp | (z&math.MaxInt64+math.MaxInt64)>>63
}

// appendDecimal appends digits·10^exp, digits > 0, in strconv's -1
// precision layout: 'e' when sci (with an unpadded exponent, as
// encoding/json writes it), else 'f'. It lays the text out in buf
// around the digits, which end at buf[26], and appends it at once.
func appendDecimal(dst []byte, digits uint64, exp int, sci bool) []byte {
	var buf [48]byte
	i, j := 26, 26
	for digits >= 1e8 {
		hi := digits / 1e8
		i -= 8
		binary.LittleEndian.PutUint64(buf[i:], digits8(uint32(digits-hi*1e8)))
		digits = hi
	}
	for v := uint32(digits); v > 0; v /= 10 {
		i--
		buf[i] = '0' + byte(v%10)
	}
	for buf[j-1] == '0' {
		j--
		exp++
	}
	n := j - i

	if sci {
		if n > 1 { // d.ddd
			buf[i-1], buf[i] = buf[i], '.'
			i--
		}
		x := n - 1 + exp
		buf[j], buf[j+1] = 'e', '+'
		if x < 0 {
			buf[j+1], x = '-', -x
		}
		j += 2
		if x >= 100 {
			buf[j] = '0' + byte(x/100)
			j++
		}
		if x >= 10 {
			buf[j] = '0' + byte(x/10%10)
			j++
		}
		buf[j] = '0' + byte(x%10)
		return append(dst, buf[i:j+1]...)
	}
	switch dp := n + exp; {
	case dp <= 0: // 0.000ddd
		for ; dp < 0; dp++ {
			i--
			buf[i] = '0'
		}
		i -= 2
		buf[i], buf[i+1] = '0', '.'
	case dp < n: // ddd.ddd
		copy(buf[i-1:], buf[i:i+dp])
		buf[i+dp-1] = '.'
		i--
	default: // ddd000
		for ; dp > n; dp-- {
			buf[j] = '0'
			j++
		}
	}
	return append(dst, buf[i:j]...)
}

// digits8 returns v < 1e8 as 8 ASCII digits in little-endian order:
// the halves, their hundreds and their tens are split in parallel in
// the lanes of one 64-bit word (P. Khuong's SWAR conversion).
func digits8(v uint32) uint64 {
	x := uint64(v/10000) | uint64(v%10000)<<32 // abcd | efgh
	hundreds := x * 10486 >> 20 & (0x7f<<32 | 0x7f)
	x = (x-100*hundreds)<<16 | hundreds // ab | cd | ef | gh
	tens := x * 103 >> 10 & 0x000f_000f_000f_000f
	x = (x-10*tens)<<8 | tens // a | b | … | h
	return x + 0x3030_3030_3030_3030
}
