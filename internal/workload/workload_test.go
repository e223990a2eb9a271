package workload

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"srccache/internal/blockdev"
)

func TestConfigValidation(t *testing.T) {
	tests := []struct {
		name string
		cfg  Config
	}{
		{"zero span", Config{Span: 0}},
		{"span below request", Config{Span: blockdev.PageSize, RequestBytes: 2 * blockdev.PageSize}},
		{"unaligned request", Config{Span: 1 << 20, RequestBytes: 100}},
		{"unaligned offset", Config{Span: 1 << 20, Offset: 3}},
		{"bad read fraction", Config{Span: 1 << 20, ReadFraction: 1.5}},
		{"unknown pattern", Config{Pattern: Zipf + 1, Span: 1 << 20}},
		{"theta of one", Config{Pattern: Zipf, Span: 1 << 20, Theta: 1}},
		{"negative theta", Config{Pattern: Zipf, Span: 1 << 20, Theta: -0.5}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewGenerator(tt.cfg); err == nil {
				t.Fatal("accepted invalid config")
			}
		})
	}
}

func TestDeterminism(t *testing.T) {
	mk := func() *Generator {
		g, err := NewGenerator(Config{Span: 1 << 20, Seed: 42, ReadFraction: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	a, b := mk(), mk()
	for i := 0; i < 100; i++ {
		ra, _ := a.Next()
		rb, _ := b.Next()
		if ra != rb {
			t.Fatalf("streams diverge at %d: %v vs %v", i, ra, rb)
		}
	}
}

func TestSequentialWraps(t *testing.T) {
	g, err := NewGenerator(Config{Pattern: Sequential, Span: 4 * blockdev.PageSize})
	if err != nil {
		t.Fatal(err)
	}
	var offs []int64
	for i := 0; i < 5; i++ {
		r, ok := g.Next()
		if !ok {
			t.Fatal("generator ended")
		}
		offs = append(offs, r.Off)
	}
	want := []int64{0, 4096, 8192, 12288, 0}
	for i := range want {
		if offs[i] != want[i] {
			t.Fatalf("offsets %v, want %v", offs, want)
		}
	}
}

func TestReadFraction(t *testing.T) {
	g, err := NewGenerator(Config{Span: 1 << 20, ReadFraction: 0.7, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	reads := 0
	const n = 10000
	for i := 0; i < n; i++ {
		r, _ := g.Next()
		if r.Op == blockdev.OpRead {
			reads++
		}
	}
	frac := float64(reads) / n
	if math.Abs(frac-0.7) > 0.03 {
		t.Fatalf("read fraction %.3f, want ~0.7", frac)
	}
}

func TestRequestsStayInRange(t *testing.T) {
	for _, p := range []Pattern{UniformRandom, Sequential, Zipf} {
		g, err := NewGenerator(Config{
			Pattern: p, Span: 1 << 20, Offset: 1 << 20, RequestBytes: 8192, Seed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 1000; i++ {
			r, _ := g.Next()
			if r.Off < 1<<20 || r.Off+r.Len > 2<<20 {
				t.Fatalf("%v: request %v outside [1MiB, 2MiB)", p, r)
			}
			if r.Off%8192 != 0 {
				t.Fatalf("%v: request %v not aligned to request size", p, r)
			}
		}
	}
}

func TestZipfianSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	z := NewZipfian(rng, 100000, 0.99)
	counts := make(map[int64]int)
	const n = 50000
	for i := 0; i < n; i++ {
		counts[z.Next()]++
	}
	// Top item should receive far more than uniform share (0.001%).
	if counts[0] < n/100 {
		t.Fatalf("rank 0 got %d of %d samples, expected heavy skew", counts[0], n)
	}
	// The top 1% of items should dominate.
	var top int
	for i := int64(0); i < 1000; i++ {
		top += counts[i]
	}
	if float64(top)/n < 0.5 {
		t.Fatalf("top 1%% of items got %.2f of mass, want > 0.5", float64(top)/n)
	}
}

// TestZipfStreamGolden pins the first 100 000 requests of the cache-layer
// benchmark's stream shape (256 MiB span, 4 KiB, 70 % reads, θ 0.99) to a
// digest captured before the sampler's constants were hoisted: a faster
// Next must draw bit-identical offsets.
func TestZipfStreamGolden(t *testing.T) {
	g, err := NewGenerator(Config{
		Pattern: Zipf, Span: 256 << 20, RequestBytes: 4096, ReadFraction: 0.7, Theta: 0.99, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := streamDigest(g, 100_000), "7f276e94766b4dc3"; got != want {
		t.Fatalf("stream digest %s, want %s", got, want)
	}
}

// streamDigest hashes the op, offset and length of src's first n requests.
func streamDigest(src Source, n int) string {
	h := fnv.New64a()
	var b [17]byte
	for i := 0; i < n; i++ {
		r, _ := src.Next()
		b[0] = byte(r.Op)
		binary.LittleEndian.PutUint64(b[1:], uint64(r.Off))
		binary.LittleEndian.PutUint64(b[9:], uint64(r.Len))
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func TestZipfianFallbackTheta(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	z := NewZipfian(rng, 100, 1.5) // invalid theta falls back to 0.99
	if z.theta != 0.99 {
		t.Fatalf("theta %v", z.theta)
	}
	if NewZipfian(rng, 0, 0.5).N() != 1 {
		t.Fatal("n<1 not clamped")
	}
}

func TestZetaTailApproximation(t *testing.T) {
	// Compare the hybrid zeta against the exact sum for a size just above
	// the exact limit.
	n := int64(zetaExactLimit * 2)
	exact := 0.0
	for i := int64(1); i <= n; i++ {
		exact += math.Pow(float64(i), -0.8)
	}
	approx := zeta(n, 0.8)
	if math.Abs(approx-exact)/exact > 0.001 {
		t.Fatalf("zeta approx %.4f vs exact %.4f", approx, exact)
	}
}

func TestPatternStrings(t *testing.T) {
	if UniformRandom.String() != "uniform" || Sequential.String() != "sequential" ||
		Zipf.String() != "zipfian" {
		t.Fatal("pattern names wrong")
	}
}
