package lifecycle

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/dist"
	"repro/internal/relational"
)

// errSpeculationLost cancels the losing attempt of a speculative pair.
// It never escapes the Guard: the loser's error is expected and dropped.
var errSpeculationLost = fmt.Errorf("lifecycle: speculative duplicate lost the race")

// Guard threads one query's execution through the elastic cluster view:
// it resolves shard endpoints to live replicas, claims the fault plan's
// events as the query's phases reach their ordinals, and runs the
// recovery those faults oblige — re-shipped data, re-dispatched
// fragments, speculative duplicates — measuring every bit of it into the
// query's stats. One Guard per QueryRun; its methods are called from the
// query's own goroutine, phases in order.
type Guard struct {
	m         *Manager
	qr        *dist.QueryRun
	phase     int
	fragRound int
}

// NewGuard wires a query run into the elastic view: the run's flows
// resolve their endpoints through the Manager (they follow live
// primaries) and the Guard runs its movement phases and fragment rounds.
func (m *Manager) NewGuard(qr *dist.QueryRun) *Guard {
	qr.SetHostResolver(m.HostFor)
	return &Guard{m: m, qr: qr}
}

// RunPhase runs one bulk movement phase under fault injection: degrade
// and partition events scheduled at this phase's ordinal land before the
// flows are admitted (the phase runs over the degraded fabric), and a
// kill event lands Frac through the phase — the dead host's data is
// re-shipped from replicas in a "recover:" phase and the recovery cost
// is measured into the query's stats.
func (g *Guard) RunPhase(name string, transfers []dist.Transfer, class string, weightScale float64) error {
	return g.step(name, func() error {
		_, err := g.qr.RunPhaseMeasured(name, transfers, class, weightScale)
		return err
	}, func(ev Event, deadNode int) ([]dist.Transfer, float64) {
		return lostTransfers(transfers, g.preResolve(transfers), deadNode, killFrac(ev))
	})
}

// RunPipelined charges one pipelined movement phase under fault
// injection: the chunks decide the charge — eager sub-rounds with their
// modeled consumer compute — and the receiver takes the payload whole
// once the phase returns. A kill at this ordinal lands at the chunk
// boundary nearest Frac: data sent to the dead host in any chunk is lost
// (the receiver died with it), data from the dead host is lost for chunks
// at or past the death point (earlier chunks were already delivered).
func (g *Guard) RunPipelined(name string, chunks []dist.Chunk, class string, weightScale float64) error {
	return g.step(name, func() error {
		return g.qr.RunPipelined(name, chunks, class, weightScale, landNothing)
	}, func(ev Event, deadNode int) ([]dist.Transfer, float64) {
		k0 := int(killFrac(ev) * float64(len(chunks)))
		if k0 >= len(chunks) {
			k0 = len(chunks) - 1
		}
		var lost []dist.Transfer
		lostBytes := 0.0
		for k, ch := range chunks {
			pre := g.preResolve(ch.Transfers)
			frac := 0.0 // chunks at/past the death point delivered nothing from the dead host
			if k < k0 {
				frac = 1 // earlier chunks were already delivered
			}
			l, b := lostTransfers(ch.Transfers, pre, deadNode, frac)
			lost = append(lost, l...)
			lostBytes += b
		}
		return lost, lostBytes
	})
}

// RunLocal runs a phase that moves nothing — a co-placed join, whose
// shards each build from their own rows — under fault injection. It
// claims the phase ordinal like every phase, so an event scheduled there
// lands on it, and records an empty phase. resident[s] is the state shard
// s built in the phase (its join table's bytes): a kill here loses the
// state of every shard the dead host held, and the shards' new primaries
// rebuild it from their replicas of the shard's rows — measured as
// re-derivation compute, with nothing to re-ship.
func (g *Guard) RunLocal(name string, resident []float64) error {
	return g.step(name, func() error {
		_, err := g.qr.RunPhaseMeasured(name, nil, "", 0)
		return err
	}, func(_ Event, deadNode int) ([]dist.Transfer, float64) {
		lost := 0.0
		for s, b := range resident {
			if g.m.HostFor(s) == deadNode {
				lost += b
			}
		}
		return nil, lost
	})
}

// step is the one way a phase runs under fault injection: it claims the
// next phase ordinal's events, lands their link faults (degrade and
// partition) so run moves over the degraded fabric, runs the phase, and
// then lands the ordinal's kills, re-shipping what selectLost says the
// phase lost.
func (g *Guard) step(name string, run func() error, selectLost func(Event, int) ([]dist.Transfer, float64)) error {
	evs := g.m.claimPhaseEvents(g.phase)
	g.phase++
	if err := g.applyLinkFaults(evs); err != nil {
		return err
	}
	if err := run(); err != nil {
		return err
	}
	return g.applyKills(name, evs, selectLost)
}

// preResolve snapshots the transfers' endpoint resolution under current
// (pre-kill) membership, so the Guard can tell which flows touched a
// host after it is marked dead.
func (g *Guard) preResolve(ts []dist.Transfer) [][2]int {
	pre := make([][2]int, len(ts))
	for i, t := range ts {
		pre[i] = [2]int{g.m.HostFor(t.Src), g.m.HostFor(t.Dst)}
	}
	return pre
}

func killFrac(ev Event) float64 {
	if ev.Frac <= 0 || ev.Frac > 1 {
		return 0.5
	}
	return ev.Frac
}

// lostTransfers selects the transfers a host death invalidates, given
// the pre-kill endpoint resolution. A transfer *into* the dead host
// must re-ship in full — the receiver died holding it. A transfer *out
// of* the dead host was frac-complete at death, so (1−frac) of it must
// re-ship from a replica.
func lostTransfers(ts []dist.Transfer, pre [][2]int, deadNode int, frac float64) ([]dist.Transfer, float64) {
	var lost []dist.Transfer
	bytes := 0.0
	for i, t := range ts {
		if t.Bytes <= 0 || pre[i][0] == pre[i][1] {
			continue
		}
		switch deadNode {
		case pre[i][1]:
			lost = append(lost, t)
			bytes += t.Bytes
		case pre[i][0]:
			if rem := t.Bytes * (1 - frac); rem > 0 {
				lost = append(lost, dist.Transfer{Src: t.Src, Dst: t.Dst, Bytes: rem})
				bytes += rem
			}
		}
	}
	return lost, bytes
}

// applyLinkFaults lands degrade/partition events before a phase runs.
func (g *Guard) applyLinkFaults(evs []Event) error {
	for _, ev := range evs {
		switch ev.Kind {
		case EventDegrade:
			if err := g.m.DegradeWorker(ev.Worker, ev.Factor); err != nil {
				return err
			}
		case EventPartition:
			if err := g.m.DegradeWorker(ev.Worker, PartitionFactor); err != nil {
				return err
			}
		}
	}
	return nil
}

// applyKills lands kill events after their phase ran: the worker dies,
// the Manager repairs replication, and the query re-ships whatever the
// phase lost — computed by the select callback against the *pre-kill*
// resolution — under the new placement, charging the recovery network
// time plus the modeled re-derivation of the lost bytes.
func (g *Guard) applyKills(name string, evs []Event, selectLost func(Event, int) ([]dist.Transfer, float64)) error {
	for _, ev := range evs {
		if ev.Kind != EventKill {
			continue
		}
		// Resolve the victim and the lost flows against *pre-kill*
		// membership, then mark it dead.
		deadNode, err := g.m.NodeOf(ev.Worker)
		if err != nil {
			return fmt.Errorf("lifecycle: phase %s: %w", name, err)
		}
		lost, lostBytes := selectLost(ev, deadNode)
		_, remapped, err := g.m.Kill(ev.Worker)
		if err != nil {
			return fmt.Errorf("lifecycle: phase %s: %w", name, err)
		}
		recSec := 0.0
		if len(lost) > 0 {
			recSec, err = g.qr.RunPhaseMeasured("recover:"+name, lost, "", 0)
			if err != nil {
				return err
			}
		}
		g.qr.AddRecovery(recSec+lostBytes/dist.ChunkComputeBytesPerSec, len(remapped), 0)
	}
	return nil
}

// RunFragments runs one fragment round: shard s's operator tree, from
// build, drained into a column-built relation (dist.DrainSink).
func (g *Guard) RunFragments(name string, n, workers int, build func(int) (relational.BatchOp, error)) ([]*relational.Relation, error) {
	return runRound(g, n, build, dist.DrainSink(name, workers))
}

// RunPartialAggs runs one fragment round whose shards fold their streams
// into partial aggregates (sink is a dist.PartialAggSink).
func (g *Guard) RunPartialAggs(n int, build func(int) (relational.BatchOp, error), sink dist.Sink[*relational.PartialAgg]) ([]*relational.PartialAgg, error) {
	return runRound(g, n, build, sink)
}

// runRound is the guarded fragment round: dist.RunShards — the one shard
// fan-out — plus fault claiming. Every shard builds its operator tree via
// build (callable more than once per shard: a speculative duplicate
// rebuilds its own) and hands it to sink. A shard whose primary worker
// has a slow event at this round's ordinal runs as a speculative pair:
// the primary attempt is delayed Factor×StragglerDelay (the injected
// straggle), a watchdog launches a duplicate after SpecThreshold, the
// first result wins and is the only one kept, and the loser is cancelled
// and joined before returning — no goroutine outlives the call. Wins and
// the duplicated compute (priced by the winner's encoded bytes) are
// measured into the query's stats. With no slow event the round is the
// same fan-out with no pairs, and charges nothing.
func runRound[T dist.Output](g *Guard, n int, build func(int) (relational.BatchOp, error), sink dist.Sink[T]) ([]T, error) {
	round := g.fragRound
	g.fragRound++
	slow := g.m.claimSlowEvents(round)
	factor := make([]float64, n) // per shard; 0 = not straggling
	for s := range factor {
		w, err := g.m.PrimaryWorker(s)
		if err != nil {
			return nil, err
		}
		factor[s] = slow[w]
	}
	var mu sync.Mutex
	wins := 0
	dupBytes := 0.0
	outs, err := dist.RunShards(n, sink, func(s int, run func(relational.BatchOp) (T, error)) (T, error) {
		// attempt builds shard s's fragment and runs it through the sink.
		// delay gates the run (the injected straggle) and tok cancels both
		// the gate and the stream at the next batch boundary.
		attempt := func(delay time.Duration, tok *relational.CancelToken) (out T, err error) {
			op, err := build(s)
			if err != nil {
				return out, err
			}
			if delay > 0 {
				gate := make(chan struct{})
				tok.OnCancel(func() { close(gate) })
				t := time.NewTimer(delay)
				select {
				case <-t.C:
				case <-gate:
					t.Stop()
					return out, tok.Err()
				}
			}
			return run(relational.GuardBatch(op, tok))
		}
		if factor[s] == 0 {
			return attempt(0, nil)
		}
		out, won, err := speculate(g.m.plan, factor[s], attempt)
		if err == nil {
			mu.Lock()
			if won {
				wins++
			}
			dupBytes += out.EncodedBytes()
			mu.Unlock()
		}
		return out, err
	})
	if len(slow) > 0 {
		g.qr.AddRecovery(dupBytes/dist.ChunkComputeBytesPerSec, 0, wins)
	}
	return outs, err
}

// speculate races a straggling primary attempt against a duplicate
// launched after the speculation threshold: first result wins, the
// loser is cancelled and joined. won reports whether the duplicate won.
func speculate[T any](plan *FaultPlan, factor float64, attempt func(time.Duration, *relational.CancelToken) (T, error)) (out T, won bool, err error) {
	type result struct {
		out    T
		err    error
		backup bool
	}
	primTok, backTok := relational.NewCancelToken(), relational.NewCancelToken()
	delay := time.Duration(float64(plan.stragglerDelay()) * factor)
	ch := make(chan result, 2)
	go func() {
		o, e := attempt(delay, primTok)
		ch <- result{o, e, false}
	}()
	watchdog := time.NewTimer(plan.specThreshold())
	var first result
	select {
	case first = <-ch:
		// The "straggler" beat the threshold after all — no duplicate.
		watchdog.Stop()
		return first.out, false, first.err
	case <-watchdog.C:
		go func() {
			o, e := attempt(0, backTok)
			ch <- result{o, e, true}
		}()
		first = <-ch
	}
	if first.backup {
		primTok.Cancel(errSpeculationLost)
	} else {
		backTok.Cancel(errSpeculationLost)
	}
	second := <-ch // join the loser: no goroutine outlives the call
	winner := first
	if first.err != nil && second.err == nil {
		winner = second
	}
	return winner.out, winner.backup, winner.err
}
