package costmodel

import (
	"math"
	"testing"

	"srccache/internal/ssd"
)

func TestCatalogMatchesTable12(t *testing.T) {
	cat := Catalog()
	if len(cat) != 5 {
		t.Fatalf("%d products", len(cat))
	}
	checks := []struct {
		label string
		price float64
		gbUSD float64
	}{
		{"A-MLC(SATA)", 418, 1.22},
		{"A-TLC(SATA)", 272, 1.76},
		{"B-MLC(SATA)", 374, 1.36},
		{"B-TLC(SATA)", 225, 2.27},
		{"C-MLC(NVMe)", 469, 0.85},
	}
	for _, c := range checks {
		p := catalogProduct(t, c.label)
		if p.PriceUSD != c.price {
			t.Fatalf("%s price %v, want %v", c.label, p.PriceUSD, c.price)
		}
		// GB/$ matches the published row to two decimals.
		if math.Abs(p.GBPerDollar()-c.gbUSD) > 0.01 {
			t.Fatalf("%s GB/$ %.3f, want %.2f", c.label, p.GBPerDollar(), c.gbUSD)
		}
	}
}

// catalogProduct returns the Catalog entry labelled label.
func catalogProduct(t *testing.T, label string) Product {
	t.Helper()
	for _, p := range Catalog() {
		if p.Label == label {
			return p
		}
	}
	t.Fatalf("no catalog product %q", label)
	return Product{}
}

func TestTLCCheaperButShorterLived(t *testing.T) {
	aMLC := catalogProduct(t, "A-MLC(SATA)")
	aTLC := catalogProduct(t, "A-TLC(SATA)")
	if !(aTLC.GBPerDollar() > aMLC.GBPerDollar()) {
		t.Fatal("TLC should win on GB/$")
	}
	if !(aTLC.Endurance < aMLC.Endurance) {
		t.Fatal("TLC should lose on endurance")
	}
}

func TestDeviceConfigReflectsProduct(t *testing.T) {
	nvme := catalogProduct(t, "C-MLC(NVMe)")
	sata := catalogProduct(t, "A-MLC(SATA)")
	tlc := catalogProduct(t, "B-TLC(SATA)")
	cfgN := nvme.DeviceConfig("n", 1<<30)
	cfgS := sata.DeviceConfig("s", 1<<30)
	cfgT := tlc.DeviceConfig("t", 1<<30)
	if !(cfgN.LinkBandwidth > cfgS.LinkBandwidth) {
		t.Fatal("NVMe link not faster")
	}
	if cfgT.Cell != ssd.TLC || cfgT.EnduranceCycles != 1000 {
		t.Fatalf("TLC config %+v", cfgT)
	}
	// Company B penalty.
	bMLC := catalogProduct(t, "B-MLC(SATA)")
	if !(bMLC.DeviceConfig("b", 1<<30).ProgramLatency > cfgS.ProgramLatency) {
		t.Fatal("company B not slower than A")
	}
}

func TestLifetimeDays(t *testing.T) {
	// The paper's example: A-MLC with 512 GB/day at WAF ~1.4 lives ~2140
	// days. Exact value at WAF 1.402: 3000*512e9/(512e9*1.402) = 2139.8.
	p := catalogProduct(t, "A-MLC(SATA)")
	days := LifetimeDays(p.Endurance, p.TotalBytes(), DefaultDailyWriteBytes, 1.402)
	if math.Abs(days-2140) > 1 {
		t.Fatalf("lifetime %v days, want ~2140", days)
	}
	// Figure 6(d) example: 2140 days / $418 = 5.12.
	if got := LifetimePerDollar(2140, 418); math.Abs(got-5.12) > 0.01 {
		t.Fatalf("lifetime/$ %v, want 5.12", got)
	}
	if LifetimeDays(3000, 1, 0, 1) != 0 || LifetimeDays(3000, 1, 1, 0) != 0 {
		t.Fatal("degenerate inputs should yield zero")
	}
	if LifetimePerDollar(100, 0) != 0 {
		t.Fatal("zero price should yield zero")
	}
}

func TestTable4Shape(t *testing.T) {
	rows := Table4()
	if len(rows) != 7 {
		t.Fatalf("%d rows", len(rows))
	}
	// Price scales with capacity within a family; NVMe costs more per GB.
	if !(rows[1].PriceUSD > rows[0].PriceUSD) {
		t.Fatal("SATA price not increasing with capacity")
	}
	sataPerGB := rows[0].PriceUSD / float64(rows[0].CapacityGB)
	nvmePerGB := rows[3].PriceUSD / float64(rows[3].CapacityGB)
	if !(nvmePerGB > sataPerGB) {
		t.Fatal("NVMe not more expensive per GB")
	}
}
