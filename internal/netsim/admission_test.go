package netsim

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/topo"
)

func admissionSim() *Simulator {
	return NewSimulator(topo.SingleSwitch(4, topo.Gen10))
}

// TestAdmissionSingleParty: a lone party's submission runs immediately
// and reports a positive makespan.
func TestAdmissionSingleParty(t *testing.T) {
	a := NewAdmission(admissionSim())
	p := a.Join(nil)
	sec, flows, err := p.Submit([]FlowReq{{Src: 0, Dst: 1, Bytes: 1e6}})
	if err != nil || sec <= 0 || len(flows) != 1 || !flows[0].Done {
		t.Fatalf("sec=%v flows=%d err=%v", sec, len(flows), err)
	}
	if sec2, flows2, err := p.Submit(nil); err != nil || sec2 != 0 || flows2 != nil {
		t.Fatalf("empty submission must be a no-op: %v %v %v", sec2, flows2, err)
	}
	st := a.Stats()
	if st.Rounds != 1 || st.PeakFlows != 1 || st.PeakParties != 1 || st.BusySeconds <= 0 {
		t.Fatalf("stats: %+v", st)
	}
	p.Leave()
}

// TestAdmissionRoundsContend: with an Expect barrier, two concurrent
// parties share one round; flows crossing the same link complete slower
// than either party alone.
func TestAdmissionRoundsContend(t *testing.T) {
	solo := func() float64 {
		a := NewAdmission(admissionSim())
		p := a.Join(nil)
		defer p.Leave()
		sec, _, err := p.Submit([]FlowReq{{Src: 0, Dst: 1, Bytes: 1e7}})
		if err != nil {
			t.Fatal(err)
		}
		return sec
	}()

	a := NewAdmission(admissionSim())
	a.Expect(2)
	secs := make([]float64, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := a.Join(nil)
			defer p.Leave()
			var err error
			// Both parties dump onto host 1's downlink (from hosts 0 and 2).
			secs[i], _, err = p.Submit([]FlowReq{{Src: i * 2, Dst: 1, Bytes: 1e7}})
			if err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	st := a.Stats()
	if st.Rounds != 1 || st.PeakParties != 2 || st.PeakFlows != 2 {
		t.Fatalf("expected one shared round, got %+v", st)
	}
	for i, sec := range secs {
		if sec <= solo {
			t.Fatalf("party %d: contended %.6fs must exceed solo %.6fs", i, sec, solo)
		}
	}
}

// TestAdmissionRepeatable: identical sequential submissions on one
// long-lived admission layer complete in bit-identical time (the
// per-round clock reset at work).
func TestAdmissionRepeatable(t *testing.T) {
	a := NewAdmission(admissionSim())
	p := a.Join(nil)
	defer p.Leave()
	var first float64
	for i := 0; i < 3; i++ {
		sec, _, err := p.Submit([]FlowReq{{Src: 0, Dst: 1, Bytes: 3e6}, {Src: 2, Dst: 1, Bytes: 1e6}})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = sec
		} else if sec != first {
			t.Fatalf("round %d took %v, first took %v", i, sec, first)
		}
	}
}

// TestAdmissionLeaveUnblocks: a party leaving (query finished or failed
// before moving data) releases waiters and clamps the Expect floor.
func TestAdmissionLeaveUnblocks(t *testing.T) {
	a := NewAdmission(admissionSim())
	a.Expect(2)
	p1 := a.Join(nil)
	done := make(chan float64, 1)
	go func() {
		sec, _, err := p1.Submit([]FlowReq{{Src: 0, Dst: 1, Bytes: 1e6}})
		if err != nil {
			t.Error(err)
		}
		done <- sec
	}()
	p2 := a.Join(nil)
	select {
	case <-done:
		t.Fatal("round ran before the floor was satisfied or released")
	case <-time.After(100 * time.Millisecond):
	}
	p2.Leave() // floor clamps to 1, p1's round runs
	select {
	case sec := <-done:
		if sec <= 0 {
			t.Fatalf("sec=%v", sec)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("leave did not release the barrier")
	}
	p1.Leave()
}

// TestAdmissionWithdrawReleasesFloor: when an expected party dies before
// ever joining (plan error upstream), Withdraw must release its Expect
// slot so survivors' rounds run — the launcher-side deadlock guard.
func TestAdmissionWithdrawReleasesFloor(t *testing.T) {
	a := NewAdmission(admissionSim())
	a.Expect(2)
	p := a.Join(nil)
	done := make(chan float64, 1)
	go func() {
		sec, _, err := p.Submit([]FlowReq{{Src: 0, Dst: 1, Bytes: 1e6}})
		if err != nil {
			t.Error(err)
		}
		done <- sec
	}()
	select {
	case <-done:
		t.Fatal("round ran below the Expect floor")
	case <-time.After(100 * time.Millisecond):
	}
	a.Withdraw() // the second workload failed before joining
	select {
	case sec := <-done:
		if sec <= 0 {
			t.Fatalf("sec=%v", sec)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("withdraw did not release the barrier")
	}
	p.Leave()
}

// TestAdmissionCancelWithdraws: a cancelled party parked at the barrier
// withdraws its submission and reports the cancellation cause.
func TestAdmissionCancelWithdraws(t *testing.T) {
	a := NewAdmission(admissionSim())
	a.Expect(2)
	cause := errors.New("cancelled")
	var mu sync.Mutex
	var tripped bool
	p := a.Join(func() error {
		mu.Lock()
		defer mu.Unlock()
		if tripped {
			return cause
		}
		return nil
	})
	done := make(chan error, 1)
	go func() {
		_, _, err := p.Submit([]FlowReq{{Src: 0, Dst: 1, Bytes: 1e6}})
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	mu.Lock()
	tripped = true
	mu.Unlock()
	a.Wake()
	select {
	case err := <-done:
		if !errors.Is(err, cause) {
			t.Fatalf("expected cancellation cause, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancellation did not unpark Submit")
	}
	p.Leave()
}

// TestAdmissionBadRequest: a rejected request surfaces as the
// submission's error without wedging later rounds.
func TestAdmissionBadRequest(t *testing.T) {
	a := NewAdmission(admissionSim())
	p := a.Join(nil)
	defer p.Leave()
	if _, _, err := p.Submit([]FlowReq{{Src: 0, Dst: 1, Bytes: -1}}); err == nil {
		t.Fatal("expected flow-size error")
	}
	if sec, _, err := p.Submit([]FlowReq{{Src: 0, Dst: 1, Bytes: 1e6}}); err != nil || sec <= 0 {
		t.Fatalf("fabric wedged after bad request: %v %v", sec, err)
	}
}

// TestAdmissionStalledPhaseFails: a flow over a zero-speed link gets no
// positive rate. Its submission fails with an error instead of panicking
// the shared simulator, and the next round runs on the repaired link.
func TestAdmissionStalledPhaseFails(t *testing.T) {
	a := NewAdmission(admissionSim())
	p := a.Join(nil)
	defer p.Leave()
	var speed topo.GbE
	a.MutateNet(func(n *topo.Network) {
		lid := n.Incident(0)[0]
		speed, n.Links[lid].Speed = n.Links[lid].Speed, 0
	})
	if _, _, err := p.Submit([]FlowReq{{Src: 0, Dst: 1, Bytes: 1e6}}); err == nil || !strings.Contains(err.Error(), "no positive rates") {
		t.Fatalf("stalled phase: %v, want a no-positive-rates error", err)
	}
	a.MutateNet(func(n *topo.Network) { n.Links[n.Incident(0)[0]].Speed = speed })
	if sec, _, err := p.Submit([]FlowReq{{Src: 0, Dst: 1, Bytes: 1e6}}); err != nil || sec <= 0 {
		t.Fatalf("fabric wedged after a stalled phase: %v %v", sec, err)
	}
}
