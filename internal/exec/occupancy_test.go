package exec

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/accel"
)

// Device-occupancy throttling: a device admits a bounded number of
// in-flight morsels (a spatial pipeline one, a SIMT device a few
// command streams, the CPU its cores); morsels beyond the cap queue,
// and the queueing shows up in QueueWaits/QueueSeconds — never in
// Seconds, which stays pure compute so placement costs and queue
// pressure remain separable (and schedule-independent assertions
// elsewhere stay valid).

// TestOccupancyPerStyle pins the admission caps the device styles model.
func TestOccupancyPerStyle(t *testing.T) {
	if got := occupancy(accel.Pipeline); got != 1 {
		t.Fatalf("pipeline occupancy = %d, want 1", got)
	}
	if got := occupancy(accel.SIMT); got != 4 {
		t.Fatalf("SIMT occupancy = %d, want 4", got)
	}
	if got := occupancy(accel.SIMD); got != runtime.NumCPU() {
		t.Fatalf("SIMD occupancy = %d, want NumCPU %d", got, runtime.NumCPU())
	}
}

// TestDeviceOccupancyQueues: with the FPGA's single pipeline slot held
// by an in-flight morsel, a concurrent morsel must record a queue wait
// — charged to QueueSeconds, not folded into its compute Seconds. The
// exact interleaving is schedule-dependent, so the contention attempt
// retries rather than asserting a particular timing.
func TestDeviceOccupancyQueues(t *testing.T) {
	dev, err := NewDevice("fpga")
	if err != nil {
		t.Fatal(err)
	}
	k := Kernel{Name: "filter", Desc: kernelDesc(FilterWork, 4096), HostBytes: 1}

	// Uncontended runs never queue; the second run reuses the loaded
	// bitstream, giving the pure-compute baseline.
	warm, err := dev.Run(k, func() error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if warm.QueueWaits != 0 || warm.QueueSeconds != 0 {
		t.Fatalf("uncontended morsel queued: %+v", warm)
	}
	base, err := dev.Run(k, func() error { return nil })
	if err != nil {
		t.Fatal(err)
	}

	for attempt := 0; attempt < 50; attempt++ {
		entered := make(chan struct{})
		release := make(chan struct{})
		firstDone := make(chan Cost, 1)
		go func() {
			c, _ := dev.Run(k, func() error { close(entered); <-release; return nil })
			firstDone <- c
		}()
		<-entered // the pipeline slot is now held

		secondDone := make(chan Cost, 1)
		go func() {
			c, _ := dev.Run(k, func() error { return nil })
			secondDone <- c
		}()
		// Let the second morsel reach the occupancy gate while the slot
		// is held, then release the first.
		time.Sleep(time.Millisecond)
		close(release)
		first := <-firstDone
		second := <-secondDone

		if first.QueueWaits != 0 {
			t.Fatalf("slot holder queued behind itself: %+v", first)
		}
		if second.QueueWaits == 0 {
			continue // second won the race to the slot; try again
		}
		if second.QueueSeconds <= 0 {
			t.Fatalf("queued morsel priced no wait: %+v", second)
		}
		if second.Seconds != base.Seconds {
			t.Fatalf("queue wait leaked into compute Seconds: %v vs baseline %v", second.Seconds, base.Seconds)
		}
		return
	}
	t.Fatal("second morsel never observed a busy slot in 50 attempts")
}

// TestDispatcherAggregatesQueueing: queue waits charged on a device
// surface in both the operator's OpCost and the placer's per-device
// stats, and the device summary line mentions them.
func TestDispatcherAggregatesQueueing(t *testing.T) {
	p, err := NewPlacer([]string{"fpga"}, "fpga")
	if err != nil {
		t.Fatal(err)
	}
	d := p.Dispatcher(FilterWork, 0, 0)
	hold := make(chan struct{})
	entered := make(chan struct{})
	go func() {
		d.Run(4096, func() error { close(entered); <-hold; return nil })
	}()
	<-entered
	done := make(chan struct{})
	go func() {
		d.Run(4096, func() error { return nil })
		close(done)
	}()
	time.Sleep(time.Millisecond)
	close(hold)
	<-done

	cost := d.Cost()
	if cost.Morsels != 2 {
		t.Fatalf("dispatched %d morsels", cost.Morsels)
	}
	if cost.QueueWaits > 0 {
		// The racy branch: only assert consistency when contention
		// actually happened (it nearly always does).
		if cost.QueueSeconds <= 0 {
			t.Fatalf("queue waits without queue seconds: %+v", cost)
		}
		st := p.Stats()
		if len(st) != 1 || st[0].QueueWaits != cost.QueueWaits {
			t.Fatalf("placer stats dropped queueing: %+v", st)
		}
	}
}
