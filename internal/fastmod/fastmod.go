// Package fastmod computes n mod d for a divisor d fixed at construction
// without a hardware divide: a mask when d is a power of two, otherwise
// Lemire's direct remainder with a precomputed 128-bit reciprocal
// ("Faster Remainder by Direct Computation", Lemire, Kaser and Kurz,
// 2019). The reciprocal c = ceil(2^128/d) makes the remainder exact for
// every uint64 numerator and every divisor below 2^64. The simulator's
// per-access set, bank and channel selection uses it, because set and
// bank counts such as 3072, 96, 6, 7 and 10 are not powers of two and a
// 64-bit DIV costs tens of cycles.
package fastmod

import "math/bits"

// Divisor is a precomputed modulus. The zero value is not usable; build
// one with New.
type Divisor struct {
	d      uint64
	mask   uint64 // d-1 when d is a power of two
	pow2   bool
	mh, ml uint64 // ceil(2^128/d), high and low words, when d is not
}

// New precomputes the modulus d. It panics on d == 0, which only a
// caller bug can produce.
func New(d uint64) Divisor {
	if d == 0 {
		panic("fastmod: zero divisor")
	}
	if d&(d-1) == 0 {
		return Divisor{d: d, mask: d - 1, pow2: true}
	}
	// ceil(2^128/d) = floor((2^128-1)/d) + 1, since d does not divide
	// 2^128; the 128-by-64 division is two chained Div64 steps.
	hi, r := bits.Div64(0, ^uint64(0), d)
	lo, _ := bits.Div64(r, ^uint64(0), d)
	lo, carry := bits.Add64(lo, 1, 0)
	return Divisor{d: d, mh: hi + carry, ml: lo}
}

// Mod returns n % d, for the d New was given.
func (v Divisor) Mod(n uint64) uint64 {
	if v.pow2 {
		return n & v.mask
	}
	// f = c*n mod 2^128, then n % d = (f*d) >> 128.
	fh, fl := bits.Mul64(v.ml, n)
	fh += v.mh * n
	h1, _ := bits.Mul64(fl, v.d)
	h2, l2 := bits.Mul64(fh, v.d)
	_, carry := bits.Add64(l2, h1, 0)
	return h2 + carry
}
