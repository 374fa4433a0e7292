// Package exec is the heterogeneous operator-execution seam: the device
// model that lets the relational batch engine place each morsel on
// whichever device class — SIMD CPU, SIMT GPU, spatial FPGA pipeline —
// a cost model says is cheapest (Section IV.C.3's dynamic placement,
// HyPer-style morsel granularity).
//
// The layering mirrors the fabric control plane of internal/netsim: the
// data plane (the CPU reference kernels in internal/kernels) always
// computes the actual result, so every placement is semantically
// identical and output stays row-for-row equal across device sets; a
// Device only differs in the *modeled* cost it charges — roofline
// compute/bandwidth time from the internal/hw device models plus the
// style's offload overheads (PCIe transfer and kernel launch for SIMT,
// bitstream reconfiguration for pipelines). A nil placer (no device set
// configured) is the fixed homogeneous engine, bit-identical with the
// pre-device code path.
package exec

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"

	"repro/internal/accel"
	"repro/internal/hw"
)

// Kernel identifies one operator kernel at one morsel size: the roofline
// terms the device models price, plus the control-flow shape (branchy
// filters derate wide execution styles) and the bytes that would cross
// the host boundary on an offload device.
type Kernel struct {
	// Name is the kernel identity ("filter", "project", "sort",
	// "aggregate"); spatial devices reconfigure when it changes.
	Name string
	// Branchy marks divergent control flow (filter-shaped kernels).
	Branchy bool
	// Desc is the roofline descriptor at the morsel size.
	Desc hw.Kernel
	// HostBytes is the host<->device traffic an offload device would move
	// to run this kernel (morsel in + result out).
	HostBytes float64
}

// Cost is the modeled cost of device work: one morsel's charge, or a
// sum of them in an operator's OpCost and a device's DeviceStats.
// Seconds includes every overhead component listed below it except the
// queueing terms: QueueWaits counts dispatches that found every device
// slot busy, and QueueSeconds estimates the time spent waiting in the
// device queue. Queueing is kept out of Seconds because it is a
// schedule-dependent concurrency artifact, not per-morsel device work —
// folding it in would make modeled device time vary run to run; do not
// assert exact queueing values in tests.
type Cost struct {
	Seconds         float64 `json:"seconds"`
	TransferSeconds float64 `json:"transfer_seconds"`
	LaunchSeconds   float64 `json:"launch_seconds"`
	SetupSeconds    float64 `json:"setup_seconds"`
	EnergyJ         float64 `json:"energy_j"`
	QueueWaits      int     `json:"queue_waits,omitempty"`
	QueueSeconds    float64 `json:"queue_seconds,omitempty"`
}

// add charges o into c.
func (c *Cost) add(o Cost) {
	c.Seconds += o.Seconds
	c.TransferSeconds += o.TransferSeconds
	c.LaunchSeconds += o.LaunchSeconds
	c.SetupSeconds += o.SetupSeconds
	c.EnergyJ += o.EnergyJ
	c.QueueWaits += o.QueueWaits
	c.QueueSeconds += o.QueueSeconds
}

// Device is one placement target: an accel.Backend (hw device model +
// execution style) and the state placement must model. All devices are
// semantically identical — Run executes the engine's reference CPU
// implementation — and differ only in the modeled cost they estimate and
// charge, exactly like accel.Backend prices the shared reference
// interpreter. A pipeline device remembers which kernel its bitstream
// implements; every device caps how many morsels it admits at once.
type Device struct {
	name  string
	b     accel.Backend
	slots chan struct{} // occupancy cap

	mu         sync.Mutex
	configured string // Pipeline style: kernel the bitstream implements
}

// DeviceNames lists the devices NewDevice accepts, in catalog order.
var DeviceNames = []string{"cpu", "gpu", "fpga"}

// NewDevice builds a fresh device model by catalog name. Fresh means
// fresh state: two calls return independent devices.
func NewDevice(name string) (*Device, error) {
	switch strings.ToLower(name) {
	case "cpu":
		return newDevice("cpu", accel.NewCPU()), nil
	case "gpu":
		return newDevice("gpu", accel.NewGPU()), nil
	case "fpga":
		return newDevice("fpga", accel.NewFPGA()), nil
	}
	return nil, fmt.Errorf("exec: unknown device %q (have %s)", name, strings.Join(DeviceNames, ", "))
}

func newDevice(name string, b accel.Backend) *Device {
	return &Device{name: name, b: b, slots: make(chan struct{}, occupancy(b.Style))}
}

// occupancy is how many morsels a device admits concurrently: a spatial
// pipeline runs one kernel at a time, a SIMT offload device queues
// behind a few command streams, and the SIMD CPU matches the host's
// cores. Morsels beyond the cap queue (counted in Cost.QueueWaits)
// instead of modeling unbounded accelerator parallelism.
func occupancy(st accel.Style) int {
	switch st {
	case accel.Pipeline:
		return 1
	case accel.SIMT:
		return 4
	default:
		return runtime.NumCPU()
	}
}

// NewDevices builds one fresh device per name, rejecting duplicates.
func NewDevices(names []string) ([]*Device, error) {
	out := make([]*Device, 0, len(names))
	seen := map[string]bool{}
	for _, n := range names {
		d, err := NewDevice(n)
		if err != nil {
			return nil, err
		}
		if seen[d.name] {
			return nil, fmt.Errorf("exec: duplicate device %q", d.name)
		}
		seen[d.name] = true
		out = append(out, d)
	}
	return out, nil
}

// Name identifies the device ("cpu", "gpu", "fpga").
func (d *Device) Name() string { return d.name }

// Style is the execution idiom the cost model prices.
func (d *Device) Style() accel.Style { return d.b.Style }

// Estimate prices one execution of k without running it, consulting
// device state (an already-configured pipeline reports zero
// SetupSeconds).
func (d *Device) Estimate(k Kernel) accel.Estimate {
	est := d.b.EstimateKernel(k.Desc, k.Branchy, k.HostBytes)
	if d.b.Style == accel.Pipeline {
		d.mu.Lock()
		if d.configured == k.Name {
			est.SetupSeconds = 0 // bitstream already loaded
		}
		d.mu.Unlock()
	}
	return est
}

// Run executes fn — the reference implementation, shared by every
// device — updates device state, and returns the modeled cost charged,
// including any reconfiguration this run triggered.
func (d *Device) Run(k Kernel, fn func() error) (Cost, error) {
	est := d.b.EstimateKernel(k.Desc, k.Branchy, k.HostBytes)
	cost := Cost{
		Seconds:         est.Seconds,
		TransferSeconds: est.TransferSeconds,
		LaunchSeconds:   est.LaunchSeconds,
		EnergyJ:         est.EnergyJ,
	}
	select {
	case d.slots <- struct{}{}:
	default:
		// Every slot busy: this morsel queues behind roughly one
		// in-flight morsel of the same shape.
		cost.QueueWaits = 1
		cost.QueueSeconds = est.Seconds
		d.slots <- struct{}{}
	}
	defer func() { <-d.slots }()
	if d.b.Style == accel.Pipeline {
		d.mu.Lock()
		if d.configured != k.Name {
			d.configured = k.Name
			cost.SetupSeconds = est.SetupSeconds
			cost.Seconds += est.SetupSeconds
			// The bitstream load draws idle power for its duration.
			cost.EnergyJ += est.SetupSeconds * d.b.Device.Power(0)
		}
		d.mu.Unlock()
	}
	err := fn()
	return cost, err
}

// DeviceStats is one device's aggregate over an execution: how many
// morsels (and rows) placement sent to it and the modeled
// time/energy they cost, with the offload overhead components broken
// out. It is the per-device line of sql.Result.Devices.
type DeviceStats struct {
	Device  string `json:"device"`
	Style   string `json:"style"`
	Morsels int    `json:"morsels"`
	Rows    int64  `json:"rows"`
	Cost
}

// String renders one summary line.
func (s DeviceStats) String() string {
	line := fmt.Sprintf("%s(%s): %d morsels, %d rows, %.3gs modeled (xfer %.3gs, launch %.3gs, setup %.3gs), %.3g J",
		s.Device, s.Style, s.Morsels, s.Rows, s.Seconds, s.TransferSeconds, s.LaunchSeconds, s.SetupSeconds, s.EnergyJ)
	if s.QueueWaits > 0 {
		line += fmt.Sprintf(", %d queued (%.3gs wait)", s.QueueWaits, s.QueueSeconds)
	}
	return line
}

// aggStats is the race-safe per-device aggregate sink an execution's
// placers (the query placer and its per-shard forks) share.
type aggStats struct {
	mu    sync.Mutex
	byDev map[string]*DeviceStats
}

func (a *aggStats) charge(dev *Device, rows int, c Cost) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.byDev == nil {
		a.byDev = map[string]*DeviceStats{}
	}
	st := a.byDev[dev.name]
	if st == nil {
		st = &DeviceStats{Device: dev.name, Style: dev.b.Style.String()}
		a.byDev[dev.name] = st
	}
	st.Morsels++
	st.Rows += int64(rows)
	st.add(c)
}

func (a *aggStats) snapshot() []DeviceStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]DeviceStats, 0, len(a.byDev))
	for _, st := range a.byDev {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Device < out[j].Device })
	return out
}

// ModeledSeconds sums the modeled execution time across a device report.
func ModeledSeconds(stats []DeviceStats) float64 {
	total := 0.0
	for _, s := range stats {
		total += s.Seconds
	}
	return total
}
