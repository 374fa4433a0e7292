package exec

import (
	"fmt"
	"sync"

	"repro/internal/kernels"
)

// KernelKind names the operator kernels the batch engine dispatches.
type KernelKind int

// Dispatchable operator kernels.
const (
	FilterWork KernelKind = iota
	ProjectWork
	SortWork
	AggWork
)

func (k KernelKind) String() string {
	switch k {
	case FilterWork:
		return "filter"
	case ProjectWork:
		return "project"
	case SortWork:
		return "sort"
	case AggWork:
		return "aggregate"
	default:
		return fmt.Sprintf("kernel(%d)", int(k))
	}
}

// defaultSelectivity is the planner default for unobserved filters,
// matching the accel stage planner.
const defaultSelectivity = 0.5

// selEWMAAlpha weights the newest observed morsel selectivity into the
// running estimate.
const selEWMAAlpha = 0.25

// OpCost is one operator's accumulated modeled execution cost — the
// heterogeneous slice of its OpStats: the sum of its morsels' charges
// and, in Devices, its morsels per device name.
type OpCost struct {
	Kernel  string
	Morsels int
	Cost
	Devices map[string]int
}

// String renders a compact per-operator summary.
func (c OpCost) String() string {
	return fmt.Sprintf("%s: %d morsels over %v, %.3gs modeled", c.Kernel, c.Morsels, c.Devices, c.Seconds)
}

// Dispatcher places one operator's morsels. It is shared by the
// operator's partitions (like the engine's row counters) and is safe for
// concurrent use; the observed-selectivity feedback loop lives here, so
// later morsels are priced with what earlier morsels measured.
type Dispatcher struct {
	p    *Placer
	kind KernelKind
	// expected estimates the total rows the operator will process (the
	// planner's cardinality hint); one-off device setup amortizes over
	// the implied morsel count. 0 means unknown (one-shot pricing).
	expected int
	// width is the kernel's secondary size: computed columns for
	// ProjectWork, expected groups for AggWork, key count for SortWork.
	// 0 picks a kernel-appropriate default.
	width int

	mu   sync.Mutex
	sel  float64 // EWMA of observed keep fraction; <0 until observed
	cost OpCost
}

// Dispatcher returns a dispatcher for one operator's kind kernel, or nil
// on a nil placer (the homogeneous engine: a nil dispatcher just runs
// its morsels).
func (p *Placer) Dispatcher(kind KernelKind, expectedRows, width int) *Dispatcher {
	if p == nil {
		return nil
	}
	return &Dispatcher{p: p, kind: kind, expected: expectedRows, width: width, sel: -1,
		cost: OpCost{Kernel: kind.String(), Devices: map[string]int{}}}
}

// kernel builds the priced kernel for one morsel of `rows` rows, folding
// in the selectivity feedback.
func (d *Dispatcher) kernel(rows int, sel float64) Kernel {
	width := d.width
	k := Kernel{Name: d.kind.String()}
	switch d.kind {
	case FilterWork:
		if sel < 0 {
			sel = defaultSelectivity
		}
		k.Branchy = true
		k.Desc = kernels.FilterDescriptor(rows, sel)
		k.HostBytes = 8 * float64(rows) * (1 + sel)
	case ProjectWork:
		if width < 1 {
			width = 1
		}
		k.Desc = kernels.ProjectDescriptor(rows, width)
		k.HostBytes = 8 * float64(rows) * float64(width+1)
	case SortWork:
		k.Desc = kernels.SortDescriptor(rows)
		if width > 1 {
			// Multi-key sorts fall off the radix kernel onto comparison
			// sorting: per-element work scales with the key count.
			k.Desc.Ops *= float64(width)
		}
		k.HostBytes = 16 * float64(rows)
	case AggWork:
		if width < 1 {
			width = 64
		}
		k.Desc = kernels.AggregateDescriptor(rows, width)
		k.HostBytes = 8*float64(rows) + 16*float64(width)
	}
	return k
}

// place runs one morsel: build the kernel, pick a device (amortizing
// setup over the expected morsel count), execute fn on it, and charge
// the modeled cost into the operator and placer aggregates.
func (d *Dispatcher) place(rows int, fn func() error) error {
	if rows <= 0 {
		return fn()
	}
	d.mu.Lock()
	sel := d.sel
	d.mu.Unlock()
	runs := 1
	if d.expected > rows {
		runs = (d.expected + rows - 1) / rows
	}
	k := d.kernel(rows, sel)
	dev := d.p.pick(k, runs)
	cost, err := dev.Run(k, fn)
	d.p.agg.charge(dev, rows, cost)
	d.mu.Lock()
	d.cost.Morsels++
	d.cost.add(cost)
	d.cost.Devices[dev.name]++
	d.mu.Unlock()
	return err
}

// Run dispatches one morsel of rows through the placer. fn is the
// reference implementation and always executes — devices model cost, not
// semantics — so Run under any placement returns exactly fn's result. A
// nil dispatcher just runs fn (the homogeneous engine).
func (d *Dispatcher) Run(rows int, fn func() error) error {
	if d == nil {
		return fn()
	}
	return d.place(rows, fn)
}

// RunFilter is Run for filter kernels: fn additionally reports how many
// rows it kept, feeding the selectivity EWMA that prices later morsels
// (the Result.Selectivity feedback loop at operator granularity).
func (d *Dispatcher) RunFilter(rows int, fn func() (kept int, err error)) error {
	if d == nil {
		_, err := fn()
		return err
	}
	return d.place(rows, func() error {
		kept, err := fn()
		if err != nil {
			return err
		}
		if rows > 0 {
			obs := float64(kept) / float64(rows)
			d.mu.Lock()
			if d.sel < 0 {
				d.sel = obs
			} else {
				d.sel = selEWMAAlpha*obs + (1-selEWMAAlpha)*d.sel
			}
			d.mu.Unlock()
		}
		return nil
	})
}

// Selectivity returns the current observed-selectivity estimate
// (negative before any morsel has been observed).
func (d *Dispatcher) Selectivity() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.sel
}

// Cost snapshots the operator's accumulated modeled cost.
func (d *Dispatcher) Cost() OpCost {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := d.cost
	out.Devices = make(map[string]int, len(d.cost.Devices))
	for k, v := range d.cost.Devices {
		out.Devices[k] = v
	}
	return out
}
