package lifecycle

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"time"
)

// EventKind classifies one injected fault.
type EventKind int

const (
	// EventKill kills a worker host partway through a movement phase: the
	// phase's data to and from the host is lost and must re-ship from
	// replicas, its shards re-dispatch to surviving replicas, and the
	// host never comes back.
	EventKill EventKind = iota
	// EventSlow makes a worker straggle through one fragment round: its
	// fragments are delayed by Factor×StragglerDelay, past the
	// speculation threshold, so backups launch and race them.
	EventSlow
	// EventDegrade divides the speed of the worker's access links by
	// Factor from the next admission round on.
	EventDegrade
	// EventPartition is EventDegrade at PartitionFactor: the host is
	// effectively cut off, every byte crossing the cut priced three
	// orders of magnitude up.
	EventPartition
)

func (k EventKind) String() string {
	switch k {
	case EventKill:
		return "kill"
	case EventSlow:
		return "slow"
	case EventDegrade:
		return "degrade"
	case EventPartition:
		return "partition"
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// Event is one scheduled fault. Phase is an ordinal into the faulted
// query's execution: for kill/degrade/partition it counts movement
// phases (broadcast/shuffle = 0, gather follows), for slow it counts
// fragment-materialization rounds. Events fire once per cluster, claimed
// by the first query whose execution reaches the ordinal — a seeded
// schedule therefore replays deterministically on a deterministic
// workload.
type Event struct {
	Kind   EventKind
	Worker int
	Phase  int
	// Frac is the fraction of the phase completed when a kill lands
	// (bounds the data already delivered from the dying host; ≤0 means
	// 0.5). Factor is the straggle multiplier for slow and the link-speed
	// divisor for degrade.
	Frac   float64
	Factor float64
}

// FaultPlan is a deterministic fault schedule plus the speculation
// tuning knobs.
type FaultPlan struct {
	Events []Event
	// StragglerDelay is the delay a slow event injects per Factor unit
	// into the straggling fragment (default 50ms — far past the
	// speculation threshold, so backups always launch).
	StragglerDelay time.Duration
	// SpecThreshold is how long a fragment may run before the Guard
	// launches a speculative duplicate (default 5ms).
	SpecThreshold time.Duration
}

func (p *FaultPlan) stragglerDelay() time.Duration {
	if p == nil || p.StragglerDelay <= 0 {
		return 50 * time.Millisecond
	}
	return p.StragglerDelay
}

func (p *FaultPlan) specThreshold() time.Duration {
	if p == nil || p.SpecThreshold <= 0 {
		return 5 * time.Millisecond
	}
	return p.SpecThreshold
}

// String renders the plan in ParsePlan's grammar.
func (p *FaultPlan) String() string {
	if p == nil || len(p.Events) == 0 {
		return ""
	}
	parts := make([]string, len(p.Events))
	for i, ev := range p.Events {
		s := fmt.Sprintf("%s:%d@%d", ev.Kind, ev.Worker, ev.Phase)
		switch {
		case ev.Kind == EventKill && ev.Frac > 0:
			s += fmt.Sprintf(":%g", ev.Frac)
		case (ev.Kind == EventSlow || ev.Kind == EventDegrade) && ev.Factor > 0:
			s += fmt.Sprintf(":%g", ev.Factor)
		}
		parts[i] = s
	}
	return strings.Join(parts, ",")
}

// ParsePlan parses a comma-separated fault schedule:
//
//	kill:W@P[:FRAC]       worker W dies FRAC (default 0.5) through movement phase P
//	slow:W@R[:FACTOR]     worker W straggles FACTOR× (default 4) in fragment round R
//	degrade:W@P[:FACTOR]  worker W's links run FACTOR× (default 10) slower from phase P
//	partition:W@P         worker W is cut off from phase P
//	seed:N                a seeded pseudo-random schedule over the cluster's workers
//
// An argument must be a finite number above 0, and a kill fraction at most
// 1; partition takes none. workers is the cluster's worker count, used to
// place seeded events and bounds-check explicit ones. An empty spec
// returns (nil, nil).
func ParsePlan(spec string, workers int) (*FaultPlan, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	plan := &FaultPlan{}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.Split(part, ":")
		kind := fields[0]
		if kind == "seed" {
			if len(fields) != 2 {
				return nil, fmt.Errorf("lifecycle: bad fault %q (want seed:N)", part)
			}
			seed, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("lifecycle: bad fault seed %q: %v", fields[1], err)
			}
			plan.Events = append(plan.Events, Seeded(seed, workers).Events...)
			continue
		}
		if len(fields) < 2 || len(fields) > 3 {
			return nil, fmt.Errorf("lifecycle: bad fault %q (want kind:worker@phase[:arg])", part)
		}
		at := strings.Split(fields[1], "@")
		if len(at) != 2 {
			return nil, fmt.Errorf("lifecycle: bad fault %q (want kind:worker@phase[:arg])", part)
		}
		w, err := strconv.Atoi(at[0])
		if err != nil || w < 0 || (workers > 0 && w >= workers) {
			return nil, fmt.Errorf("lifecycle: bad fault worker %q in %q (have %d workers)", at[0], part, workers)
		}
		phase, err := strconv.Atoi(at[1])
		if err != nil || phase < 0 {
			return nil, fmt.Errorf("lifecycle: bad fault phase %q in %q", at[1], part)
		}
		ev := Event{Worker: w, Phase: phase}
		switch kind {
		case "kill":
			ev.Kind = EventKill
		case "slow":
			ev.Kind = EventSlow
		case "degrade":
			ev.Kind, ev.Factor = EventDegrade, 10
		case "partition":
			ev.Kind = EventPartition
		default:
			return nil, fmt.Errorf("lifecycle: unknown fault kind %q in %q (have kill, slow, degrade, partition, seed)", kind, part)
		}
		if len(fields) == 3 {
			arg, err := strconv.ParseFloat(fields[2], 64)
			switch {
			case ev.Kind == EventPartition:
				return nil, fmt.Errorf("lifecycle: bad fault argument %q in %q (partition takes none)", fields[2], part)
			case err != nil || !(arg > 0) || math.IsInf(arg, 0):
				return nil, fmt.Errorf("lifecycle: bad fault argument %q in %q (want a finite number above 0)", fields[2], part)
			case ev.Kind == EventKill && arg > 1:
				return nil, fmt.Errorf("lifecycle: bad fault argument %q in %q (a kill fraction is at most 1)", fields[2], part)
			case ev.Kind == EventKill:
				ev.Frac = arg
			default:
				ev.Factor = arg
			}
		}
		plan.Events = append(plan.Events, ev)
	}
	if len(plan.Events) == 0 {
		return nil, nil
	}
	return plan, nil
}

// Seeded builds a deterministic pseudo-random schedule for a cluster of
// the given worker count: one mid-phase host death, one straggler, one
// link degradation, each placed by the seeded generator. The same seed
// and worker count always yield the same schedule.
func Seeded(seed int64, workers int) *FaultPlan {
	if workers < 1 {
		workers = 1
	}
	rng := rand.New(rand.NewSource(seed))
	kill := rng.Intn(workers)
	// (kill + step) mod workers, without the sum overflowing.
	slow := kill - workers + 1 + rng.Intn(maxInt(workers-1, 1))
	if slow < 0 {
		slow += workers
	}
	degrade := rng.Intn(workers)
	return &FaultPlan{Events: []Event{
		{Kind: EventKill, Worker: kill, Phase: rng.Intn(2), Frac: 0.25 + 0.5*rng.Float64()},
		{Kind: EventSlow, Worker: slow, Phase: rng.Intn(2), Factor: 2 + 3*rng.Float64()},
		{Kind: EventDegrade, Worker: degrade, Phase: rng.Intn(2), Factor: 4 + 8*rng.Float64()},
	}}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
