package exec

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

// Placements lists the placement names NewPlacer accepts: "auto" is
// cost-based per-morsel placement; a device name forces every morsel
// onto that device.
var Placements = []string{"auto", "cpu", "gpu", "fpga"}

// Placer owns one execution's device set and placement and aggregates
// the per-device modeled costs its dispatchers charge. A query builds
// one Placer; distributed executions Fork one per shard so every
// simulated worker host places independently on its own device state
// while charging the same query-level aggregate.
//
// A Placer is safe for concurrent use (morsel-parallel partitions share
// its dispatchers).
type Placer struct {
	devs []*Device
	// forced is the index in devs of the device every morsel is forced
	// onto (the ablation comparator: "cpu" replays the homogeneous
	// engine's cost, "gpu"/"fpga" model an engine hard-wired to its
	// accelerator), or -1 for cost-based placement.
	forced int
	agg    *aggStats
}

// placement normalizes a placement name ("" means "auto").
func placement(name string) (string, error) {
	p := strings.ToLower(name)
	if p == "" {
		p = "auto"
	}
	if !slices.Contains(Placements, p) {
		return "", fmt.Errorf("exec: unknown placement %q (have %s)", name, strings.Join(Placements, ", "))
	}
	return p, nil
}

// NewPlacer builds a placer over fresh devices. names must be non-empty
// and placement must resolve; a forced placement must name one of the
// devices.
func NewPlacer(names []string, placementName string) (*Placer, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("exec: placer needs at least one device")
	}
	devs, err := NewDevices(names)
	if err != nil {
		return nil, err
	}
	pl, err := placement(placementName)
	if err != nil {
		return nil, err
	}
	p := &Placer{devs: devs, forced: -1, agg: &aggStats{}}
	if pl != "auto" {
		if p.forced = slices.IndexFunc(devs, func(d *Device) bool { return d.name == pl }); p.forced < 0 {
			return nil, fmt.Errorf("exec: placement %q is not in the device set %v", placementName, names)
		}
	}
	return p, nil
}

// ValidateConfig checks a (devices, placement) pair without keeping the
// placer — the construction-time validation hook for configuration
// layers.
func ValidateConfig(names []string, placementName string) error {
	if len(names) == 0 {
		// No devices = homogeneous engine; the placement is ignored but
		// still must parse so a typo surfaces here, not silently.
		_, err := placement(placementName)
		return err
	}
	_, err := NewPlacer(names, placementName)
	return err
}

// Fork returns a placer with the same devices and placement but fresh
// device state (an FPGA on one shard reconfigures independently of its
// peers), charging into the same aggregate as the receiver.
func (p *Placer) Fork() *Placer {
	devs := make([]*Device, len(p.devs))
	for i, d := range p.devs {
		devs[i] = newDevice(d.name, d.b)
	}
	return &Placer{devs: devs, forced: p.forced, agg: p.agg}
}

// pick chooses the device for one morsel of kernel k. Cost-based
// placement picks the device whose estimate minimizes per-run total
// time, with setup amortized over the runs the operator is expected to
// dispatch — Recommendation 11's dynamic placement at morsel
// granularity. Ties fall to the earliest device in catalog order, so the
// CPU wins when offload buys nothing.
func (p *Placer) pick(k Kernel, runs int) *Device {
	if p.forced >= 0 {
		return p.devs[p.forced]
	}
	best, bestS := p.devs[0], math.Inf(1)
	for _, d := range p.devs {
		if s := d.Estimate(k).TotalSeconds(runs); s < bestS {
			best, bestS = d, s
		}
	}
	return best
}

// Placement names how morsels are placed: "auto" or the forced device.
func (p *Placer) Placement() string {
	if p.forced < 0 {
		return "auto"
	}
	return p.devs[p.forced].name
}

// Stats snapshots the per-device aggregate over every dispatcher of this
// placer and its forks, sorted by device name.
func (p *Placer) Stats() []DeviceStats { return p.agg.snapshot() }

// String renders the placer's configuration for plan explanations.
func (p *Placer) String() string {
	names := make([]string, len(p.devs))
	for i, d := range p.devs {
		names[i] = d.name
	}
	return fmt.Sprintf("devices [%s], placement %s", strings.Join(names, " "), p.Placement())
}
