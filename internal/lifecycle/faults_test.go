package lifecycle

import (
	"math"
	"reflect"
	"testing"
)

// Exercise possible failure modes: every spec here is refused, with an
// error naming the part.
func TestParsePlanRefuses(t *testing.T) {
	for _, c := range parsePlanErrorCases {
		t.Run(c.spec, func(t *testing.T) {
			plan, err := ParsePlan(c.spec, 4)
			if err == nil || err.Error() != c.error {
				t.Fatalf("ParsePlan(%q) error %v, want %q", c.spec, err, c.error)
			}
			if plan != nil {
				t.Fatalf("ParsePlan(%q) returned a plan beside its error: %v", c.spec, plan)
			}
		})
	}
}

var parsePlanErrorCases = []struct {
	spec  string
	error string
}{
	{"degrade:0@0:NaN", `lifecycle: bad fault argument "NaN" in "degrade:0@0:NaN" (want a finite number above 0)`},
	{"degrade:0@0:Inf", `lifecycle: bad fault argument "Inf" in "degrade:0@0:Inf" (want a finite number above 0)`},
	{"degrade:0@0:-Inf", `lifecycle: bad fault argument "-Inf" in "degrade:0@0:-Inf" (want a finite number above 0)`},
	{"slow:0@0:NaN", `lifecycle: bad fault argument "NaN" in "slow:0@0:NaN" (want a finite number above 0)`},
	{"slow:0@0:+Inf", `lifecycle: bad fault argument "+Inf" in "slow:0@0:+Inf" (want a finite number above 0)`},
	{"slow:1@0:-2", `lifecycle: bad fault argument "-2" in "slow:1@0:-2" (want a finite number above 0)`},
	{"degrade:0@0:0", `lifecycle: bad fault argument "0" in "degrade:0@0:0" (want a finite number above 0)`},
	{"degrade:0@0:1e400", `lifecycle: bad fault argument "1e400" in "degrade:0@0:1e400" (want a finite number above 0)`},
	{"kill:0@0:NaN", `lifecycle: bad fault argument "NaN" in "kill:0@0:NaN" (want a finite number above 0)`},
	{"kill:0@0:7", `lifecycle: bad fault argument "7" in "kill:0@0:7" (a kill fraction is at most 1)`},
	{"kill:0@0:1.0000001", `lifecycle: bad fault argument "1.0000001" in "kill:0@0:1.0000001" (a kill fraction is at most 1)`},
	{"kill:0@0:0", `lifecycle: bad fault argument "0" in "kill:0@0:0" (want a finite number above 0)`},
	{"partition:0@0:7", `lifecycle: bad fault argument "7" in "partition:0@0:7" (partition takes none)`},
	{"partition:0@0:NaN", `lifecycle: bad fault argument "NaN" in "partition:0@0:NaN" (partition takes none)`},
	{"kill:1@0,partition:2@1:0.5", `lifecycle: bad fault argument "0.5" in "partition:2@1:0.5" (partition takes none)`},
	{"kill:9@0", `lifecycle: bad fault worker "9" in "kill:9@0" (have 4 workers)`},
	{"kill:1", `lifecycle: bad fault "kill:1" (want kind:worker@phase[:arg])`},
	{"kill:1@-1", `lifecycle: bad fault phase "-1" in "kill:1@-1"`},
	{"explode:1@0", `lifecycle: unknown fault kind "explode" in "explode:1@0" (have kill, slow, degrade, partition, seed)`},
	{"explode:1@0:NaN", `lifecycle: unknown fault kind "explode" in "explode:1@0:NaN" (have kill, slow, degrade, partition, seed)`},
	{"seed:x", `lifecycle: bad fault seed "x": strconv.ParseInt: parsing "x": invalid syntax`},
}

// Every grammar form parses to its event and renders back to its spec.
func TestParsePlanForms(t *testing.T) {
	for _, c := range []struct {
		spec, text string
		ev         Event
	}{
		{"kill:1@0:0.25", "kill:1@0:0.25", Event{Kind: EventKill, Worker: 1, Frac: 0.25}},
		{"kill:1@0:1", "kill:1@0:1", Event{Kind: EventKill, Worker: 1, Frac: 1}},
		{"kill:1@0", "kill:1@0", Event{Kind: EventKill, Worker: 1}},
		{"slow:2@1:4", "slow:2@1:4", Event{Kind: EventSlow, Worker: 2, Phase: 1, Factor: 4}},
		{"degrade:0@2:1.5", "degrade:0@2:1.5", Event{Kind: EventDegrade, Phase: 2, Factor: 1.5}},
		{"degrade:0@2", "degrade:0@2:10", Event{Kind: EventDegrade, Phase: 2, Factor: 10}},
		{"partition:3@0", "partition:3@0", Event{Kind: EventPartition, Worker: 3}},
	} {
		plan, err := ParsePlan(c.spec, 4)
		if err != nil {
			t.Fatalf("%q: %v", c.spec, err)
		}
		if len(plan.Events) != 1 || plan.Events[0] != c.ev {
			t.Fatalf("%q parsed to %+v, want %+v", c.spec, plan.Events, c.ev)
		}
		if got := plan.String(); got != c.text {
			t.Fatalf("%q renders %q, want %q", c.spec, got, c.text)
		}
	}
}

// TestDegradeRefusesNonFinite: a non-finite factor would price the
// worker's links at NaN or zero speed, so it is refused before the fabric
// is touched.
func TestDegradeRefusesNonFinite(t *testing.T) {
	m := newTestManager(t, 2, nil)
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := m.DegradeWorker(1, f); err == nil {
			t.Fatalf("DegradeWorker(1, %g) must fail", f)
		}
	}
}

// TestSeededHugeWorkerCount: a seeded schedule over a worker count near
// math.MaxInt places every event on a worker in range.
func TestSeededHugeWorkerCount(t *testing.T) {
	for seed := int64(0); seed < 32; seed++ {
		for _, ev := range Seeded(seed, math.MaxInt).Events {
			if ev.Worker < 0 {
				t.Fatalf("seed %d: worker %d out of range", seed, ev.Worker)
			}
		}
	}
}

// FuzzParseFaultPlan: arbitrary text and worker counts never panic the
// chaos grammar, and an accepted plan's String re-parses to the same
// events and renders the same bytes again.
func FuzzParseFaultPlan(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string, workers int) {
		plan, err := ParsePlan(spec, workers)
		if err != nil || plan == nil {
			return
		}
		text := plan.String()
		again, err := ParsePlan(text, workers)
		if err != nil {
			t.Fatalf("ParsePlan(%q) accepted, its rendering %q refused: %v", spec, text, err)
		}
		if again == nil || !reflect.DeepEqual(again.Events, plan.Events) {
			t.Fatalf("ParsePlan(%q) = %+v, its rendering %q re-parses to %+v", spec, plan.Events, text, again)
		}
		if got := again.String(); got != text {
			t.Fatalf("ParsePlan(%q) renders %q, then %q", spec, text, got)
		}
	})
}
