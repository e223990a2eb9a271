package workload

import (
	"math"
	"math/rand"
)

// Zipfian samples integers in [0, n) with a Zipf distribution of exponent
// theta in (0, 1). It implements the classic Gray et al. / YCSB algorithm,
// which (unlike math/rand.Zipf) supports exponents below one — the range
// real storage-trace skew falls in.
//
// Draws are a pure function of (seed, n, theta), and the stream goldens pin
// them: a faster Next must draw the values powDraw defines, bit for bit.
type Zipfian struct {
	n      int64
	theta  float64
	alpha  float64
	zetan  float64
	eta    float64
	half   float64 // zeta(2, theta)
	rank1  float64 // 1 + 0.5^theta: a scaled draw below it is rank 1
	k      int64   // round(alpha) if fastDraw is on, else 0
	lo, hi float64 // 1 ∓ fastDraw's guard band
	rng    *rand.Rand
}

// NewZipfian builds a sampler over [0, n) with exponent theta. Exponents
// outside (0, 1) fall back to the conventional 0.99.
func NewZipfian(rng *rand.Rand, n int64, theta float64) *Zipfian {
	if n < 1 {
		n = 1
	}
	if theta <= 0 || theta >= 1 {
		theta = 0.99
	}
	z := &Zipfian{n: n, theta: theta, rng: rng}
	z.zetan = zeta(n, theta)
	z.half = zeta(2, theta)
	z.rank1 = 1 + math.Pow(0.5, theta)
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - z.half/z.zetan)
	z.initFast()
	return z
}

// N reports the sampler's range.
func (z *Zipfian) N() int64 { return z.n }

// Next draws one sample.
func (z *Zipfian) Next() int64 { return z.draw(z.rng.Float64()) }

// draw maps a uniform u in [0, 1) to a sample.
func (z *Zipfian) draw(u float64) int64 {
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.rank1 {
		return 1
	}
	b := z.eta*u - z.eta + 1
	v, ok := z.fastDraw(b)
	if !ok {
		v = z.powDraw(b)
	}
	return min(v, z.n-1)
}

// powDraw is the reference rank for base b: every draw equals it.
func (z *Zipfian) powDraw(b float64) int64 {
	return int64(float64(z.n) * math.Pow(b, z.alpha))
}

// maxGuard caps fastDraw's guard band. A wider band means alpha is far from
// an integer, and too many draws would land in it to be worth trying.
const maxGuard = 1e-9

// initFast turns fastDraw on when alpha is an integer k to within an error
// the guard band absorbs (see fastDraw). Every theta of the form 1 - 1/k
// qualifies: 0.5, 0.8, 0.9, 0.95, 0.99.
func (z *Zipfian) initFast() {
	const ulp = 0x1p-53
	k := math.Round(z.alpha)
	// bmin is below every base the pow branch sees: it takes u*zetan >= rank1.
	bmin := z.eta*(z.rank1/z.zetan*(1-0x1p-40)) - z.eta + 1
	g := 100 * ((2*k+8)*ulp + 2*math.Abs(z.alpha-k)*math.Abs(math.Log(bmin)))
	if g <= maxGuard && z.eta > 0 && z.n <= 1<<53 { // false for a NaN g
		z.k, z.lo, z.hi = int64(k), 1-g, 1+g
	}
}

// fastDraw is powDraw with b^k taken by repeated squaring instead of
// math.Pow(b, alpha); ok is false where it cannot vouch for the result.
//
// Why the two agree. math.Pow (math/pow.go) splits alpha into k and
// f = alpha-k, both exact, and returns Exp(f*Log(b)) times b^k, the latter
// by this same squaring chain on b's Frexp mantissa; its power-of-two
// scaling is exact while nothing is subnormal. Unfolded into a tree, either
// chain is a product of k leaves, so k-1 or k rounded multiplies leave it
// within (k+1)·2^-53 of b^k, relative. Exp(f*Log(b)) is 1 + f·ln(b) to
// within a few ulps, and |ln b| ≤ |ln bmin| in the pow branch. With the
// products by n, the two values of n·b^alpha are within
// r = (2k+8)·2^-53 + 2|f|·|ln bmin| of each other, relative, and the guard
// band is g = 100·r. So the reference lies inside n·p·(1±g), and when both
// ends of that band truncate alike, so does the reference.
// eta > 0 and u < 1 make b ≤ 1, so every factor lies in [p, 1] and
// p ≥ 2^-1000 keeps them all normal; n ≤ 2^53 keeps n·p inside int64.
func (z *Zipfian) fastDraw(b float64) (v int64, ok bool) {
	if z.k == 0 || !(b > 0) {
		return 0, false
	}
	p := 1.0
	for e := z.k; ; {
		if e&1 != 0 {
			p *= b
		}
		if e >>= 1; e == 0 {
			break
		}
		b *= b
	}
	if p < 0x1p-1000 {
		return 0, false
	}
	x := float64(z.n) * p
	v = int64(x * z.lo)
	return v, v == int64(x*z.hi)
}

// zetaExactLimit bounds the exact harmonic summation; beyond it the tail is
// integrated analytically, which keeps construction O(1) for multi-million
// page footprints with negligible error.
const zetaExactLimit = 10000

func zeta(n int64, theta float64) float64 {
	limit := n
	if limit > zetaExactLimit {
		limit = zetaExactLimit
	}
	var sum float64
	for i := int64(1); i <= limit; i++ {
		sum += math.Pow(float64(i), -theta)
	}
	if n > limit {
		// Tail integral of x^-theta from limit to n (midpoint-shifted).
		om := 1 - theta
		sum += (math.Pow(float64(n)+0.5, om) - math.Pow(float64(limit)+0.5, om)) / om
	}
	return sum
}
