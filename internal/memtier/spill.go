package memtier

import (
	"fmt"
	"strings"
)

// SpillDevice prices the I/O of spilling operator state (hash-join build
// partitions, partial-aggregate generations, sort runs) to one tier of
// the catalog — the out-of-core seam of Recommendation 5: once datasets
// exceed the memory budget, the storage hierarchy's latency, bandwidth
// and energy shape the plan. It is the spill-side analogue of how the
// exec layer prices PCIe offload: a transfer of n bytes costs the tier's
// access latency plus n over its sustained bandwidth, and an energy
// charge from a per-tier access-cost table.
type SpillDevice struct {
	tier Tier
	// joulesPerByte is the per-byte access energy of the tier's medium.
	joulesPerByte float64
}

// SpillTiers lists the tiers NewSpillDevice accepts, fastest first.
// DRAM is deliberately absent: spilling to the tier the budget models is
// a no-op, not an out-of-core strategy.
var SpillTiers = []string{"nvm", "ssd", "disk"}

// spillEnergy is the modeled access energy per byte moved to/from each
// tier (media write/read plus controller overheads, coarse 2016-era
// figures: SCM ~0.2 nJ/B, NAND flash ~2 nJ/B, spinning disk ~10 nJ/B).
var spillEnergy = map[string]float64{
	"nvm":  0.2e-9,
	"ssd":  2e-9,
	"disk": 10e-9,
}

// NewSpillDevice builds a spill device over the named catalog tier. The
// tier's latency and bandwidth must be positive — a zero-bandwidth tier
// would make every transfer divide by zero — so configuration errors
// surface at engine construction, not mid-spill.
func NewSpillDevice(name string) (*SpillDevice, error) {
	var tier Tier
	switch strings.ToLower(name) {
	case "nvm":
		tier = NVM
	case "ssd":
		tier = SSD
	case "disk":
		tier = Disk
	default:
		return nil, fmt.Errorf("memtier: unknown spill tier %q (have %s)", name, strings.Join(SpillTiers, ", "))
	}
	return newSpillDevice(tier)
}

// newSpillDevice validates an explicit tier (exported entry points all
// come from the catalog, but the guard keeps custom tiers honest too).
func newSpillDevice(tier Tier) (*SpillDevice, error) {
	if tier.GBs <= 0 {
		return nil, fmt.Errorf("memtier: spill tier %q has non-positive bandwidth", tier.Name)
	}
	if tier.LatencyNS <= 0 {
		return nil, fmt.Errorf("memtier: spill tier %q has non-positive latency", tier.Name)
	}
	return &SpillDevice{tier: tier, joulesPerByte: spillEnergy[tier.Name]}, nil
}

// Tier returns the tier name the device prices against.
func (d *SpillDevice) Tier() string { return d.tier.Name }

// Price is the modeled time and energy of accesses transfers that move
// bytes in all, in either direction: each access pays the tier's
// latency, and every byte serializes at the tier's sustained bandwidth
// and costs its medium's access energy. The price is affine in both
// counts, so the totals of many transfers price them all at once, in no
// order.
func (d *SpillDevice) Price(accesses, bytes int64) (seconds, joules float64) {
	return float64(accesses)*d.tier.LatencyNS*1e-9 + float64(bytes)/(d.tier.GBs*1e9), float64(bytes) * d.joulesPerByte
}
