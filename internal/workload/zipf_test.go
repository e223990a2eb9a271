package workload

import (
	"math"
	"math/rand"
	"testing"
)

// zipfThetas and zipfSizes are the grid the exactness tests sweep.
var (
	zipfThetas = []float64{0.5, 0.8, 0.9, 0.95, 0.99}
	zipfSizes  = []int64{100, 65536, 4 << 20}
)

// refDraw is draw with every rank taken by powDraw: the oracle.
func refDraw(z *Zipfian, u float64) int64 {
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.rank1 {
		return 1
	}
	return min(z.powDraw(z.eta*u-z.eta+1), z.n-1)
}

func checkDraw(t *testing.T, z *Zipfian, u float64) {
	t.Helper()
	if got, want := z.draw(u), refDraw(z, u); got != want {
		t.Fatalf("theta %v n %d u %v (%#x): draw %d, reference %d",
			z.theta, z.n, u, math.Float64bits(u), got, want)
	}
}

// FuzzZipfianDraw checks that a draw equals the reference draw for any n in
// [1, 2^40] and any u rand.Float64 can return.
func FuzzZipfianDraw(f *testing.F) {
	f.Add(uint8(4), uint64(65535), uint64(1)<<63)
	f.Add(uint8(0), uint64(99), uint64(0x9e3779b97f4a7c15))
	f.Add(uint8(1), uint64(4<<20-1), ^uint64(0))
	f.Add(uint8(3), uint64(1)<<40, uint64(0x7fff_ffff_ffff_fc00))
	f.Fuzz(func(t *testing.T, ti uint8, nBits, uBits uint64) {
		theta := zipfThetas[int(ti)%len(zipfThetas)]
		n := int64(1 + nBits%(1<<40))
		u := float64(uBits>>1) / (1 << 63) // as rand.Float64 builds it
		if u == 1 {
			return // rand.Float64 draws again
		}
		checkDraw(t, NewZipfian(nil, n, theta), u)
	})
}

// TestZipfianDrawNearIntegers checks the draws where rounding decides the
// rank. For each point of the grid it bisects u to where n·b(u)^alpha
// crosses an integer, then compares draw with the reference at that u, at
// its float neighbours, and at the nearest u on each side that fastDraw
// accepts.
func TestZipfianDrawNearIntegers(t *testing.T) {
	for _, theta := range zipfThetas {
		for _, n := range zipfSizes {
			z := NewZipfian(nil, n, theta)
			if z.k == 0 {
				t.Fatalf("theta %v n %d: fast path off", theta, n)
			}
			lo := math.Float64bits(z.rank1 / z.zetan)
			top := math.Float64bits(math.Nextafter(1, 0))
			rank := func(bits uint64) int64 {
				u := math.Float64frombits(bits)
				return z.powDraw(z.eta*u - z.eta + 1)
			}
			fast := 0
			for _, m := range crossings(n) {
				// Bisect the bit patterns: rank(a) < m <= rank(c).
				a, c := lo, top
				if rank(a) >= m || rank(c) < m {
					continue
				}
				for c-a > 1 {
					if mid := a + (c-a)/2; rank(mid) < m {
						a = mid
					} else {
						c = mid
					}
				}
				for d := uint64(0); d <= 3; d++ {
					checkDraw(t, z, math.Float64frombits(a-d))
					checkDraw(t, z, math.Float64frombits(c+d))
				}
				// Walk out from the crossing until fastDraw accepts.
				for _, dir := range []int64{-1, 1} {
					from := int64(a)
					if dir > 0 {
						from = int64(c)
					}
					for d := int64(1); ; d *= 2 {
						bits := from + dir*d
						if bits < int64(lo) || bits > int64(top) {
							break
						}
						u := math.Float64frombits(uint64(bits))
						if _, ok := z.fastDraw(z.eta*u - z.eta + 1); ok {
							checkDraw(t, z, u)
							fast++
							break
						}
					}
				}
			}
			if fast == 0 {
				t.Fatalf("theta %v n %d: fastDraw accepted no point", theta, n)
			}
		}
	}
}

// crossings lists the ranks whose lower edge the boundary test visits: all
// of them for a small n, else the first 100 and 400 spread geometrically.
func crossings(n int64) []int64 {
	var ms []int64
	for m := int64(2); m < n && m < 102; m++ {
		ms = append(ms, m)
	}
	for f := 102.0; f < float64(n); f *= math.Pow(float64(n)/102, 1.0/400) {
		if m := int64(f); m > ms[len(ms)-1] {
			ms = append(ms, m)
		}
	}
	return ms
}

// TestZipfianFastPathCoverage pins when the fast path runs: for integer
// alpha over the whole grid, rarely falling back to math.Pow, and never for
// a theta whose alpha is not an integer.
func TestZipfianFastPathCoverage(t *testing.T) {
	if z := NewZipfian(nil, 65536, 0.7); z.k != 0 {
		t.Fatalf("theta 0.7 (alpha %v): fast path on with k %d", z.alpha, z.k)
	}
	rng := rand.New(rand.NewSource(1))
	for _, theta := range zipfThetas {
		for _, n := range zipfSizes {
			z := NewZipfian(nil, n, theta)
			const draws = 20000
			slow := 0
			for i := 0; i < draws; i++ {
				u := rng.Float64()
				checkDraw(t, z, u)
				if u*z.zetan >= z.rank1 {
					if _, ok := z.fastDraw(z.eta*u - z.eta + 1); !ok {
						slow++
					}
				}
			}
			if slow > draws/1000 {
				t.Fatalf("theta %v n %d: %d of %d draws fell back to math.Pow", theta, n, slow, draws)
			}
		}
	}
}

var zipfSink int64

// BenchmarkZipfianNext measures one draw at theta 0.99 over 64 Ki ranks,
// beside the math.Pow reference it replaces.
func BenchmarkZipfianNext(b *testing.B) {
	z := NewZipfian(rand.New(rand.NewSource(1)), 65536, 0.99)
	b.Run("fast", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			zipfSink += z.Next()
		}
	})
	b.Run("pow", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			zipfSink += refDraw(z, z.rng.Float64())
		}
	})
}
