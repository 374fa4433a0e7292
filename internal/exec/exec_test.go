package exec

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/accel"
	"repro/internal/hw"
)

// TestDeviceCatalog: names resolve to fresh devices with the expected
// styles; unknown names and duplicates are rejected.
func TestDeviceCatalog(t *testing.T) {
	devs, err := NewDevices([]string{"cpu", "gpu", "fpga"})
	if err != nil {
		t.Fatal(err)
	}
	styles := map[string]accel.Style{"cpu": accel.SIMD, "gpu": accel.SIMT, "fpga": accel.Pipeline}
	for _, d := range devs {
		if d.Style() != styles[d.Name()] {
			t.Fatalf("%s: style %v, want %v", d.Name(), d.Style(), styles[d.Name()])
		}
	}
	if _, err := NewDevice("tpu"); err == nil {
		t.Fatal("unknown device must error")
	}
	if _, err := NewDevices([]string{"cpu", "cpu"}); err == nil {
		t.Fatal("duplicate devices must error")
	}
}

// TestOffloadOverheadsShapePlacement: cost-based placement's job on
// this catalog is mostly to *refuse* offload — with 2016-era PCIe
// (12 GB/s) against 120 GB/s socket bandwidth, a bandwidth-bound SQL
// kernel can never pay for the transfer (the roadmap's case for tighter
// accelerator integration, Recommendations 4/10) — and the estimates
// must show why: the GPU's cost is transfer-dominated, the pipeline's
// one-shot cost is reconfiguration-dominated. Without a CPU in the set
// placement still ranks the accelerators sensibly.
func TestOffloadOverheadsShapePlacement(t *testing.T) {
	p, err := NewPlacer([]string{"cpu", "gpu", "fpga"}, "auto")
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []KernelKind{FilterWork, ProjectWork, AggWork} {
		d := p.Dispatcher(kind, 1<<20, 0)
		if err := d.Run(1024, func() error { return nil }); err != nil {
			t.Fatal(err)
		}
		if got := d.Cost().Devices["cpu"]; got != 1 {
			t.Fatalf("%s morsel must stay on cpu (PCIe-bound offload): %v", kind, d.Cost().Devices)
		}
	}
	// Even a whole-input 4M-row sort stays: the GPU's PCIe transfer
	// alone exceeds the CPU's in-socket memory time.
	big := p.Dispatcher(SortWork, 0, 0)
	if err := big.Run(1<<22, func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	if got := big.Cost().Devices["cpu"]; got != 1 {
		t.Fatalf("4M-row sort should stay on cpu: %v", big.Cost().Devices)
	}

	// The estimates expose the bottlenecks the decisions came from.
	gpu, err := NewDevice("gpu")
	if err != nil {
		t.Fatal(err)
	}
	k := p.Dispatcher(SortWork, 0, 0).kernel(1<<22, -1)
	gest := gpu.Estimate(k)
	if gest.TransferSeconds < gest.Seconds/2 {
		t.Fatalf("GPU sort cost must be transfer-dominated: %+v", gest)
	}
	fpga, err := NewDevice("fpga")
	if err != nil {
		t.Fatal(err)
	}
	fest := fpga.Estimate(k)
	if fest.SetupSeconds < fest.Seconds {
		t.Fatalf("one-shot FPGA cost must be reconfiguration-dominated: %+v", fest)
	}

	// CPU removed from the set: the launch+transfer-cheap GPU beats the
	// reconfiguring pipeline for a one-shot morsel.
	accOnly, err := NewPlacer([]string{"gpu", "fpga"}, "auto")
	if err != nil {
		t.Fatal(err)
	}
	d := accOnly.Dispatcher(FilterWork, 0, 0)
	if err := d.Run(1024, func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	if got := d.Cost().Devices["gpu"]; got != 1 {
		t.Fatalf("cpu-less set must fall to the gpu: %v", d.Cost().Devices)
	}
}

// TestFPGAReconfigurationCharging: a pipeline device charges its
// reconfiguration once per kernel change — the first run of a kernel
// pays SetupSeconds, repeats are free, and switching kernels pays again.
// Estimate consults the configured state the same way.
func TestFPGAReconfigurationCharging(t *testing.T) {
	d, err := NewDevice("fpga")
	if err != nil {
		t.Fatal(err)
	}
	filter := Kernel{Name: "filter", Desc: kernelDesc(FilterWork, 4096), HostBytes: 1}
	sortK := Kernel{Name: "sort", Desc: kernelDesc(SortWork, 4096), HostBytes: 1}

	if est := d.Estimate(filter); est.SetupSeconds <= 0 {
		t.Fatalf("unconfigured pipeline must estimate setup, got %+v", est)
	}
	c1, _ := d.Run(filter, func() error { return nil })
	if c1.SetupSeconds <= 0 {
		t.Fatalf("first run must pay reconfiguration: %+v", c1)
	}
	if est := d.Estimate(filter); est.SetupSeconds != 0 {
		t.Fatalf("configured pipeline must estimate zero setup, got %+v", est)
	}
	c2, _ := d.Run(filter, func() error { return nil })
	if c2.SetupSeconds != 0 {
		t.Fatalf("repeat run must not pay reconfiguration: %+v", c2)
	}
	c3, _ := d.Run(sortK, func() error { return nil })
	if c3.SetupSeconds <= 0 {
		t.Fatalf("kernel switch must pay reconfiguration: %+v", c3)
	}
}

// kernelDesc builds a descriptor through a throwaway dispatcher config.
func kernelDesc(kind KernelKind, rows int) hw.Kernel {
	p, err := NewPlacer([]string{"cpu"}, "cpu")
	if err != nil {
		panic(err)
	}
	return p.Dispatcher(kind, 0, 0).kernel(rows, -1).Desc
}

// TestForcedPlacement: a forced placement sends every morsel to the named
// device; validation rejects a forced device outside the set.
func TestForcedPlacement(t *testing.T) {
	for _, name := range []string{"cpu", "gpu", "fpga"} {
		p, err := NewPlacer([]string{"cpu", "gpu", "fpga"}, name)
		if err != nil {
			t.Fatal(err)
		}
		d := p.Dispatcher(ProjectWork, 0, 2)
		for i := 0; i < 3; i++ {
			if err := d.Run(1024, func() error { return nil }); err != nil {
				t.Fatal(err)
			}
		}
		if got := d.Cost().Devices[name]; got != 3 {
			t.Fatalf("forced %s: morsels %v", name, d.Cost().Devices)
		}
	}
	if _, err := NewPlacer([]string{"cpu"}, "gpu"); err == nil {
		t.Fatal("forcing a device outside the set must error")
	}
	if err := ValidateConfig([]string{"cpu"}, "warp"); err == nil {
		t.Fatal("unknown placement must error")
	}
	if err := ValidateConfig(nil, ""); err != nil {
		t.Fatalf("empty config must validate: %v", err)
	}
}

// TestSelectivityFeedback: RunFilter's observed keep fractions move the
// dispatcher's EWMA, which later kernels are priced with.
func TestSelectivityFeedback(t *testing.T) {
	p, err := NewPlacer([]string{"cpu"}, "cpu")
	if err != nil {
		t.Fatal(err)
	}
	d := p.Dispatcher(FilterWork, 0, 0)
	if d.Selectivity() >= 0 {
		t.Fatalf("selectivity must start unobserved, got %v", d.Selectivity())
	}
	if err := d.RunFilter(1000, func() (int, error) { return 100, nil }); err != nil {
		t.Fatal(err)
	}
	if got := d.Selectivity(); got != 0.1 {
		t.Fatalf("first observation must seed the EWMA: %v", got)
	}
	if err := d.RunFilter(1000, func() (int, error) { return 900, nil }); err != nil {
		t.Fatal(err)
	}
	got := d.Selectivity()
	if got <= 0.1 || got >= 0.9 {
		t.Fatalf("EWMA must move between observations: %v", got)
	}
	// The kernel priced for the next morsel reflects the feedback:
	// higher selectivity means more output bytes.
	loSel := d.kernel(1000, 0.1)
	hiSel := d.kernel(1000, got)
	if hiSel.Desc.Bytes <= loSel.Desc.Bytes {
		t.Fatalf("feedback must change the priced kernel: %v vs %v", hiSel.Desc.Bytes, loSel.Desc.Bytes)
	}
}

// TestErrorsPropagate: fn errors surface through Run/RunFilter on both
// nil and live dispatchers.
func TestErrorsPropagate(t *testing.T) {
	boom := errors.New("boom")
	var nilD *Dispatcher
	if err := nilD.Run(10, func() error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("nil dispatcher: %v", err)
	}
	p, err := NewPlacer([]string{"cpu"}, "auto")
	if err != nil {
		t.Fatal(err)
	}
	d := p.Dispatcher(FilterWork, 0, 0)
	if err := d.RunFilter(10, func() (int, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("live dispatcher: %v", err)
	}
}

// TestForkIndependentState: per-shard forks place on independent device
// state (each shard's FPGA reconfigures once) while charging one shared
// aggregate.
func TestForkIndependentState(t *testing.T) {
	root, err := NewPlacer([]string{"fpga"}, "fpga")
	if err != nil {
		t.Fatal(err)
	}
	const shards = 4
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f := root.Fork()
			d := f.Dispatcher(FilterWork, 0, 0)
			for i := 0; i < 3; i++ {
				if err := d.Run(1024, func() error { return nil }); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	stats := root.Stats()
	if len(stats) != 1 || stats[0].Device != "fpga" {
		t.Fatalf("aggregate: %+v", stats)
	}
	if stats[0].Morsels != shards*3 {
		t.Fatalf("aggregate morsels %d, want %d", stats[0].Morsels, shards*3)
	}
	// Each shard's own FPGA reconfigured exactly once.
	want := shards * 1
	perSetup := stats[0].SetupSeconds
	one, _ := NewDevice("fpga")
	ref, _ := one.Run(Kernel{Name: "filter", Desc: kernelDesc(FilterWork, 1024), HostBytes: 1},
		func() error { return nil })
	if got := perSetup / ref.SetupSeconds; int(got+0.5) != want {
		t.Fatalf("reconfigurations: %v, want %d (independent per-shard state)", got, want)
	}
}

// TestAutoNeverWorseThanForcedCPU: per-morsel cost-based placement picks
// the minimum estimate, so its modeled total is never above forcing
// everything onto the CPU for the same morsel stream.
func TestAutoNeverWorseThanForcedCPU(t *testing.T) {
	run := func(placement string) float64 {
		p, err := NewPlacer([]string{"cpu", "gpu", "fpga"}, placement)
		if err != nil {
			t.Fatal(err)
		}
		d := p.Dispatcher(FilterWork, 1<<20, 0)
		for i := 0; i < 1<<20/1024; i++ {
			if err := d.RunFilter(1024, func() (int, error) { return 512, nil }); err != nil {
				t.Fatal(err)
			}
		}
		return ModeledSeconds(p.Stats())
	}
	auto, cpu := run("auto"), run("cpu")
	if auto > cpu {
		t.Fatalf("auto placement modeled %.6gs > cpu-only %.6gs", auto, cpu)
	}
}
