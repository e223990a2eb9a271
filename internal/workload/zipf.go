package workload

import (
	"math"
	"math/rand"
)

// Zipfian samples integers in [0, n) with a Zipf distribution of exponent
// theta in (0, 1). It implements the classic Gray et al. / YCSB algorithm,
// which (unlike math/rand.Zipf) supports exponents below one — the range
// real storage-trace skew falls in.
type Zipfian struct {
	n     int64
	theta float64
	alpha float64
	zetan float64
	eta   float64
	half  float64 // zeta(2, theta)
	rank1 float64 // 1 + 0.5^theta: a scaled draw below it is rank 1
	rng   *rand.Rand
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
	return z
}

// N reports the sampler's range.
func (z *Zipfian) N() int64 { return z.n }

// Next draws one sample.
func (z *Zipfian) Next() int64 {
	u := z.rng.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.rank1 {
		return 1
	}
	v := int64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if v >= z.n {
		v = z.n - 1
	}
	return v
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
