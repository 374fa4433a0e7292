package memtier

import (
	"math"
	"testing"
	"testing/quick"
)

func TestValidateOrdering(t *testing.T) {
	bad := NewHierarchy(Level{Tier: SSD, GB: 100}, Level{Tier: DRAM, GB: 100})
	if err := bad.Validate(); err == nil {
		t.Fatal("out-of-order tiers must fail")
	}
	good := NewHierarchy(Level{Tier: DRAM, GB: 100}, Level{Tier: NVM, GB: 100})
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	empty := &Hierarchy{SkewTheta: 0.5}
	if err := empty.Validate(); err == nil {
		t.Fatal("empty hierarchy must fail")
	}
}

func TestSkew8020(t *testing.T) {
	h := NewHierarchy(Level{Tier: DRAM, GB: 100})
	// The hottest 20% of data absorbs ~80% of accesses.
	if got := h.hitFraction(20, 100); math.Abs(got-0.8) > 1e-9 {
		t.Fatalf("hit(20%%) = %v, want 0.8", got)
	}
	if h.hitFraction(100, 100) != 1 || h.hitFraction(0, 100) != 0 {
		t.Fatal("boundary conditions broken")
	}
}

func TestAllDRAMLatencyIsDRAM(t *testing.T) {
	h := NewHierarchy(Level{Tier: DRAM, GB: 1000})
	lat, err := h.AvgLatencyNS(1000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lat-DRAM.LatencyNS) > 1e-9 {
		t.Fatalf("all-DRAM latency = %v", lat)
	}
}

func TestFootprintBeyondCapacityErrors(t *testing.T) {
	h := NewHierarchy(Level{Tier: DRAM, GB: 10})
	if _, err := h.AvgLatencyNS(100); err == nil {
		t.Fatal("oversized footprint must error")
	}
	if _, err := h.AvgLatencyNS(0); err == nil {
		t.Fatal("zero footprint must error")
	}
}

func TestMoreDRAMNeverSlower(t *testing.T) {
	footprint := 10000.0
	prev := math.Inf(1)
	for _, dram := range []float64{10, 100, 1000, 10000} {
		h := NewHierarchy(
			Level{Tier: DRAM, GB: dram},
			Level{Tier: SSD, GB: footprint},
		)
		lat, err := h.AvgLatencyNS(footprint)
		if err != nil {
			t.Fatal(err)
		}
		if lat > prev+1e-9 {
			t.Fatalf("latency rose with more DRAM: %v > %v", lat, prev)
		}
		prev = lat
	}
}

func TestNVMTierCutsLatencyAtFixedBudget(t *testing.T) {
	// Same cost, two designs: DRAM+SSD vs smaller DRAM + NVM + SSD. The
	// NVM design absorbs the warm tail at 350 ns instead of 80 µs.
	footprint := 10000.0
	noNVM := NewHierarchy(
		Level{Tier: DRAM, GB: 500},
		Level{Tier: SSD, GB: footprint},
	)
	// Shift 250 GB of DRAM budget (≈2000 EUR) into ~667 GB of NVM.
	withNVM := NewHierarchy(
		Level{Tier: DRAM, GB: 250},
		Level{Tier: NVM, GB: 667},
		Level{Tier: SSD, GB: footprint},
	)
	if withNVM.CostEUR() > noNVM.CostEUR()+10 {
		t.Fatalf("budget mismatch: %v vs %v", withNVM.CostEUR(), noNVM.CostEUR())
	}
	l0, err := noNVM.AvgLatencyNS(footprint)
	if err != nil {
		t.Fatal(err)
	}
	l1, err := withNVM.AvgLatencyNS(footprint)
	if err != nil {
		t.Fatal(err)
	}
	if l1 >= l0 {
		t.Fatalf("NVM tier should cut latency at equal budget: %v vs %v", l1, l0)
	}
}

func TestCheapestMeetingNVMWins(t *testing.T) {
	footprint := 10000.0
	target := 2000.0 // 2 µs average
	with, ok := CheapestMeeting(footprint, target, true)
	if !ok {
		t.Fatal("no NVM configuration meets target")
	}
	without, ok := CheapestMeeting(footprint, target, false)
	if !ok {
		t.Fatal("no DRAM+SSD configuration meets target")
	}
	if with.CostEUR >= without.CostEUR {
		t.Fatalf("NVM design (%v EUR) should undercut DRAM-only (%v EUR)", with.CostEUR, without.CostEUR)
	}
	if with.AvgLatencyNS > target || without.AvgLatencyNS > target {
		t.Fatal("returned configs must meet the target")
	}
	if with.NVMGB <= 0 {
		t.Fatal("the winning NVM config should actually use NVM")
	}
}

func TestCheapestMeetingImpossibleTarget(t *testing.T) {
	if _, ok := CheapestMeeting(1000, 10, true); ok {
		t.Fatal("10 ns average is below DRAM latency; must be infeasible")
	}
}

func TestLatencyMonotoneInTargetProperty(t *testing.T) {
	// Cheapest cost is non-increasing as the latency target relaxes.
	f := func(seed uint8) bool {
		footprint := 2000.0 + float64(seed)*50
		prevCost := math.Inf(1)
		for _, target := range []float64{500, 2000, 10000, 40000} {
			cfg, ok := CheapestMeeting(footprint, target, true)
			if !ok {
				continue
			}
			if cfg.CostEUR > prevCost+1e-6 {
				return false
			}
			prevCost = cfg.CostEUR
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestValidateZeroCapacity(t *testing.T) {
	// All-zero levels pass the per-level checks but leave the
	// concentration curve with nowhere to place a footprint.
	zero := NewHierarchy(Level{Tier: DRAM, GB: 0}, Level{Tier: SSD, GB: 0})
	if err := zero.Validate(); err == nil {
		t.Fatal("zero-total-capacity hierarchy must fail validation")
	}
	if _, err := zero.AvgLatencyNS(10); err == nil {
		t.Fatal("AvgLatencyNS over a zero-capacity hierarchy must error")
	}
}

func TestAllHotFootprint(t *testing.T) {
	// Footprint fits entirely in the fastest level: every access is hot
	// and the slower tiers contribute nothing.
	h := NewHierarchy(Level{Tier: DRAM, GB: 100}, Level{Tier: SSD, GB: 1000})
	lat, err := h.AvgLatencyNS(100)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lat-DRAM.LatencyNS) > 1e-9 {
		t.Fatalf("all-hot latency = %v, want %v", lat, DRAM.LatencyNS)
	}
}

func TestAllColdFootprint(t *testing.T) {
	// Fast levels at zero capacity: the concentration curve's hot
	// fraction is zero (no division by zero) and everything lands cold.
	h := NewHierarchy(
		Level{Tier: DRAM, GB: 0},
		Level{Tier: NVM, GB: 0},
		Level{Tier: SSD, GB: 1000},
	)
	lat, err := h.AvgLatencyNS(1000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lat-SSD.LatencyNS) > 1e-9 {
		t.Fatalf("all-cold latency = %v, want %v", lat, SSD.LatencyNS)
	}
}

func TestSpillDeviceTiers(t *testing.T) {
	for _, name := range SpillTiers {
		d, err := NewSpillDevice(name)
		if err != nil {
			t.Fatalf("NewSpillDevice(%q): %v", name, err)
		}
		if d.Tier() != name {
			t.Fatalf("Tier() = %q, want %q", d.Tier(), name)
		}
		if s, j := d.Price(0, 0); s != 0 || j != 0 {
			t.Fatal("no access must cost nothing")
		}
		s, j := d.Price(1, 1<<20)
		if s <= 0 || j <= 0 {
			t.Fatalf("transfer pricing broken for %q: %v s, %v J", name, s, j)
		}
		// Totals price as the sum of their accesses: latency per access,
		// bandwidth and energy per byte.
		s3, j3 := d.Price(3, 3<<20)
		if math.Abs(s3-3*s) > 1e-12*s3 || math.Abs(j3-3*j) > 1e-12*j3 {
			t.Fatalf("%q: three accesses price %v s, %v J; one %v s, %v J", name, s3, j3, s, j)
		}
	}
	if _, err := NewSpillDevice("dram"); err == nil {
		t.Fatal("dram is not a spill tier")
	}
	if _, err := NewSpillDevice("tape"); err == nil {
		t.Fatal("unknown tier must error")
	}
}

func TestSpillDeviceRejectsDegenerateTier(t *testing.T) {
	if _, err := newSpillDevice(Tier{Name: "broken", LatencyNS: 100, GBs: 0}); err == nil {
		t.Fatal("zero bandwidth must error")
	}
	if _, err := newSpillDevice(Tier{Name: "broken", LatencyNS: 0, GBs: 1}); err == nil {
		t.Fatal("zero latency must error")
	}
}

func TestSpillSlowerTierCostsMore(t *testing.T) {
	// The tier ordering must survive into spill pricing: a megabyte to
	// disk costs strictly more time and energy than to nvm.
	prevT, prevJ := 0.0, 0.0
	for _, name := range SpillTiers {
		d, err := NewSpillDevice(name)
		if err != nil {
			t.Fatal(err)
		}
		w, j := d.Price(1, 1<<20)
		if w <= prevT || j <= prevJ {
			t.Fatalf("%q not strictly pricier than faster tier", name)
		}
		prevT, prevJ = w, j
	}
}
