package relational

import (
	"hash/fnv"
	"math"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
)

// Out-of-core corner cases: budgets far below one batch, adversarial
// key distributions that defeat grace partitioning, and cancellation
// racing the spill machinery. In every case the contract holds — same
// rows, bounded recursion, clean shutdown — because the budget models
// cost, never semantics.

// flatDev prices spills affinely, as the storage tiers do; the relational
// tests only need a SpillDevice with nonzero, deterministic coefficients.
type flatDev struct{}

func (flatDev) Tier() string { return "test" }
func (flatDev) Price(accesses, bytes int64) (float64, float64) {
	return float64(accesses)*1.7e-5 + float64(bytes)*0.3e-9, float64(bytes) * 1e-10
}

func tinyBudget(limit int64) *MemoryBudget { return NewMemoryBudget(limit, flatDev{}) }

// TestSpillBudgetBelowOneBatch: a budget smaller than any single
// batch — even smaller than a single row — cannot hold anything
// resident, and every operator must still produce exactly the
// unbudgeted rows.
func TestSpillBudgetBelowOneBatch(t *testing.T) {
	rel := randRel(7, 3*BatchSize+57)
	dim := randRel(8, 900)
	aggs := []AggSpec{{Fn: CountAgg, Col: -1, Name: "n"}, {Fn: SumAgg, Col: 3, Name: "qty"}}
	keys := []SortKey{{Col: 3, Desc: true}, {Col: 0}}

	for _, limit := range []int64{16, 1 << 10} {
		// Hash join: the whole build side grace-partitions.
		want := collectRows(t, RowsOf(mustJoin(t, NewBatchScan(dim), NewBatchScan(rel), 0, 0, nil)))
		got := collectRows(t, RowsOf(mustJoin(t, NewBatchScan(dim), NewBatchScan(rel), 0, 0, tinyBudget(limit))))
		requireSameRows(t, want, got)

		// Group aggregate: every generation spills immediately.
		wantAgg, err := NewBatchGroupAgg(NewBatchScan(rel), []int{1}, aggs, 4)
		if err != nil {
			t.Fatal(err)
		}
		gotAgg, err := NewBatchGroupAgg(NewBatchScan(rel), []int{1}, aggs, 4)
		if err != nil {
			t.Fatal(err)
		}
		gotAgg.SetBudget(tinyBudget(limit))
		requireSameRows(t, collectRows(t, RowsOf(wantAgg)), collectRows(t, RowsOf(gotAgg)))
		if st := gotAgg.Stats(); st.Spill == nil || !st.Spill.Active() {
			t.Fatalf("limit %d: aggregate never spilled: %+v", limit, st.Spill)
		}

		// Sort: runs flush constantly; a row wider than the whole budget
		// must proceed (resident, uncharged) rather than wedge.
		wantSort, err := NewBatchSort(NewBatchScan(rel), keys, 4)
		if err != nil {
			t.Fatal(err)
		}
		gotSort, err := NewBatchSort(NewBatchScan(rel), keys, 4)
		if err != nil {
			t.Fatal(err)
		}
		gotSort.SetBudget(tinyBudget(limit))
		requireSameRows(t, collectRows(t, RowsOf(wantSort)), collectRows(t, RowsOf(gotSort)))
		if st := gotSort.Stats(); st.Spill == nil || !st.Spill.Active() {
			t.Fatalf("limit %d: sort never went external: %+v", limit, st.Spill)
		}
	}
}

func mustJoin(t *testing.T, build, probe BatchOp, bc, pc int, budget *MemoryBudget) *BatchHashJoin {
	t.Helper()
	jn, err := NewBatchHashJoin(build, probe, bc, pc, 4)
	if err != nil {
		t.Fatal(err)
	}
	if budget != nil {
		jn.SetBudget(budget)
	}
	return jn
}

// TestSpillGraceDepthLimit: a build side where every row shares one key
// cannot be shrunk by re-partitioning — the recursion must stop at
// maxGraceDepth and keep the oversized leaf correct, not loop forever
// or error out.
func TestSpillGraceDepthLimit(t *testing.T) {
	build := NewRelation("b", Schema{{Name: "k", Type: Int}, {Name: "pay", Type: String}})
	for i := 0; i < 4000; i++ {
		build.MustAppend(Row{IntV(42), StringV("padding-padding-padding")})
	}
	probe := NewRelation("p", Schema{{Name: "k", Type: Int}, {Name: "v", Type: Int}})
	probe.MustAppend(Row{IntV(42), IntV(1)})
	probe.MustAppend(Row{IntV(7), IntV(2)}) // no match

	want := collectRows(t, RowsOf(mustJoin(t, NewBatchScan(build), NewBatchScan(probe), 0, 0, nil)))
	if len(want) != 4000 {
		t.Fatalf("reference join produced %d rows", len(want))
	}
	jn := mustJoin(t, NewBatchScan(build), NewBatchScan(probe), 0, 0, tinyBudget(256))
	got := collectRows(t, RowsOf(jn))
	requireSameRows(t, want, got)

	st := jn.Stats()
	if st.Spill == nil || !st.Spill.Active() {
		t.Fatalf("degenerate build never spilled: %+v", st.Spill)
	}
	if st.Spill.MaxDepth > maxGraceDepth {
		t.Fatalf("grace recursion ran past the depth limit: depth %d > %d", st.Spill.MaxDepth, maxGraceDepth)
	}
	if st.Spill.MaxDepth < 2 {
		t.Fatalf("single-key build should recurse at least once past the first pass: depth %d", st.Spill.MaxDepth)
	}
}

// TestSpillUnderCancel: a failing partition must cancel a budgeted
// aggregation exactly like an unbudgeted one — the spill machinery
// holds no locks and leaks no goroutines across the abort (the race
// detector patrols this test in CI).
func TestSpillUnderCancel(t *testing.T) {
	probe := &cancelProbe{limit: 1 << 17}
	agg, err := NewBatchGroupAgg(&cancelSource{probe: probe}, nil, []AggSpec{{Fn: CountAgg, Col: -1}}, 4)
	if err != nil {
		t.Fatal(err)
	}
	agg.SetBudget(tinyBudget(64))
	_, err = agg.NextBatch()
	checkCancelled(t, probe, err)

	probe = &cancelProbe{limit: 1 << 17}
	empty := NewRelation("probe", probe.schema())
	jn, err := NewBatchHashJoin(&cancelSource{probe: probe}, NewBatchScan(empty), 0, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	jn.SetBudget(tinyBudget(64))
	_, err = jn.NextBatch()
	checkCancelled(t, probe, err)
}

// TestSpillBudgetAccounting: Reserve/Release book-keeping is exact and
// Fork shares the aggregate but not the arena.
func TestSpillBudgetAccounting(t *testing.T) {
	b := tinyBudget(100)
	if !b.Reserve(60) || !b.Reserve(40) {
		t.Fatal("reservations within the limit must succeed")
	}
	if b.Reserve(1) {
		t.Fatal("over-reservation must fail")
	}
	b.Release(50)
	if !b.Reserve(50) || b.Used() != 100 {
		t.Fatalf("release did not return bytes: used %d", b.Used())
	}

	f := b.Fork()
	if !f.Reserve(100) {
		t.Fatal("forked budget must have its own arena")
	}
	if b.Reserve(1) {
		t.Fatal("fork must not free the parent's arena")
	}

	// A nil budget is the unbudgeted no-op everywhere.
	var nb *MemoryBudget
	if !nb.Reserve(1<<40) || nb.Fork() != nil || nb.Used() != 0 || nb.Stats().Active() {
		t.Fatal("nil budget must be a universal no-op")
	}
}

// TestExternalSortStepsKeepRowBoundaries: the external sort reserves a
// batch-sized step of rows at a time, and its runs must still end where
// reserving row by row would end them — at the first row that does not
// fit. The oracle replays that row-at-a-time accounting over rows of
// varying size; run count and spilled bytes must match it at budgets from
// below one row to most of the input.
func TestExternalSortStepsKeepRowBoundaries(t *testing.T) {
	rel := NewRelation("r", Schema{{Name: "k", Type: Int}, {Name: "pad", Type: String}})
	for i := 0; i < 5*BatchSize+321; i++ {
		rel.MustAppend(Row{IntV(int64((i * 7919) % 1000)), StringV(string(make([]byte, (i*31)%97)))})
	}
	for _, limit := range []int64{10, 100, 7000, 60000, 200000} {
		var runs int
		var spilled, used, chunk int64
		lo := 0
		for r, row := range rel.Rows {
			rb := int64(row.EncodedBytes())
			if used+rb <= limit {
				used += rb
			} else if r > lo {
				runs++
				spilled += chunk
				lo, chunk, used = r, 0, 0
				if rb <= limit {
					used = rb
				}
			}
			chunk += rb
		}
		op, err := NewBatchSort(NewBatchScan(rel), []SortKey{{Col: 0}}, 2)
		if err != nil {
			t.Fatal(err)
		}
		op.SetBudget(tinyBudget(limit))
		if n := len(collectRows(t, RowsOf(op))); n != rel.Len() {
			t.Fatalf("limit %d: sort returned %d of %d rows", limit, n, rel.Len())
		}
		st := op.Stats().Spill
		if st == nil || st.Partitions != runs || st.SpilledBytes != spilled {
			t.Fatalf("limit %d: spilled %+v, row-by-row accounting spills %d runs, %d bytes", limit, st, runs, spilled)
		}
	}
}

// byteDev prices a spilled byte at one second each way, so a stats
// report's WriteSeconds and ReadSeconds are its write and read bytes.
type byteDev struct{}

func (byteDev) Tier() string                            { return "bytes" }
func (byteDev) Price(_, bytes int64) (float64, float64) { return float64(bytes), 0 }

// meteredAggRel draws skewed group keys, so groups recur across
// generations, in four key forms: Int, Float (NaN in two payloads, ±0,
// ±Inf), a coded String and a plain String.
func meteredAggRel() *Relation {
	rng := rand.New(rand.NewSource(5))
	nan2 := math.Float64frombits(math.Float64bits(math.NaN()) | 1)
	specials := []float64{math.NaN(), nan2, 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1)}
	n := 5*BatchSize + 300
	cols := []Vector{{T: Int}, {T: Float}, {}, {T: String}, {T: Float}}
	coded := make([]string, n)
	for i := range n {
		d := rng.Intn(rng.Intn(3000) + 1)
		f := float64(d) * 0.37
		if d < len(specials) {
			f = specials[d]
		}
		cols[0].Ints = append(cols[0].Ints, int64(d)*7919-1<<40)
		cols[1].Floats = append(cols[1].Floats, f)
		coded[i] = "k" + strconv.Itoa(d%500)
		cols[3].Strs = append(cols[3].Strs, "plain-"+strconv.Itoa(d))
		cols[4].Floats = append(cols[4].Floats, rng.Float64()*100)
	}
	cols[2] = StringVector(coded)
	schema := Schema{{Name: "ki", Type: Int}, {Name: "kf", Type: Float}, {Name: "ks", Type: String}, {Name: "kp", Type: String}, {Name: "v", Type: Float}}
	return NewColumnRelation("metered", schema, cols, n)
}

// aggSpillModel replays the metered aggregate's generations row by row:
// a group charges the generation its state bytes the first time the
// generation sees it; a batch after which the generation's charge
// exceeds the budget spills the generation's groups, one partition per
// non-empty key partition (FNV-1a over each key cell's Key() and a NUL).
// Every spilled partition is read back once.
func aggSpillModel(rel *Relation, groupCols []int, naggs int, limit int64) (parts int, spilled, state int64) {
	rows := rel.RowView()
	seen, all := map[string]bool{}, map[string]bool{}
	var gen int64
	var part [graceFanout]int64
	for lo := 0; lo < len(rows); lo += BatchSize {
		for _, row := range rows[lo:min(lo+BatchSize, len(rows))] {
			key := make(Row, len(groupCols))
			var id []byte
			for i, c := range groupCols {
				key[i] = row[c]
				id = append(append(id, row[c].Key()...), 0)
			}
			b := int64(key.EncodedBytes()) + int64(naggs)*aggStateBytes
			if !all[string(id)] {
				all[string(id)] = true
				state += b
			}
			if seen[string(id)] {
				continue
			}
			seen[string(id)] = true
			h := fnv.New64a()
			h.Write(id)
			part[h.Sum64()%graceFanout] += b
			gen += b
		}
		if gen > limit {
			for _, b := range part {
				if b > 0 {
					parts++
					spilled += b
				}
			}
			seen, gen, part = map[string]bool{}, 0, [graceFanout]int64{}
		}
	}
	return parts, spilled, state
}

// TestSpillAggMatchesGenerationModel: at one worker the metered aggregate
// spills the partitions, bytes and read-backs the row-by-row generation
// model predicts, at budgets from below one group to the whole state, over
// Int, Float, coded and plain String keys and a two-column key — and
// answers the unbudgeted rows bit for bit. A streaming pane's Snapshot
// prices the same reads on every call.
func TestSpillAggMatchesGenerationModel(t *testing.T) {
	rel := meteredAggRel()
	aggs := []AggSpec{{Fn: CountAgg, Col: -1, Name: "n"}, {Fn: SumAgg, Col: 4, Name: "s"}, {Fn: AvgAgg, Col: 4, Name: "a"}}
	for _, groupCols := range [][]int{{0}, {1}, {2}, {3}, {2, 0}} {
		ref, err := NewBatchGroupAgg(NewBatchScan(rel), groupCols, aggs, 1)
		if err != nil {
			t.Fatal(err)
		}
		want := collectRows(t, RowsOf(ref))
		_, _, state := aggSpillModel(rel, groupCols, len(aggs), 0)
		for _, limit := range []int64{16, state / 8, state / 3, state / 2, 3 * state / 4, state} {
			parts, spilled, _ := aggSpillModel(rel, groupCols, len(aggs), limit)
			op, err := NewBatchGroupAgg(NewBatchScan(rel), groupCols, aggs, 1)
			if err != nil {
				t.Fatal(err)
			}
			op.SetBudget(NewMemoryBudget(limit, byteDev{}))
			requireIdenticalRows(t, want, collectRows(t, RowsOf(op)))
			st := op.Stats().Spill
			if parts == 0 {
				if st != nil {
					t.Fatalf("cols %v limit %d: spilled %+v, the model spills nothing", groupCols, limit, st)
				}
				continue
			}
			if st == nil || st.Partitions != parts || st.SpilledBytes != spilled ||
				st.WriteSeconds != float64(spilled) || st.ReadSeconds != float64(spilled) {
				t.Fatalf("cols %v limit %d: spilled %+v, the model spills %d partitions, %d bytes, all read back",
					groupCols, limit, st, parts, spilled)
			}
		}
	}

	// A pane snapshotted once per covering window, still taking events.
	groupCols := []int{2, 1}
	budget := NewMemoryBudget(2<<10, byteDev{})
	pane := NewSpillableAgg(groupCols, aggs, budget, nil)
	whole := NewPartialAgg(groupCols, aggs)
	schema, err := groupAggSchema(rel.Schema, groupCols, aggs)
	if err != nil {
		t.Fatal(err)
	}
	emit := func(p *PartialAgg) []Row {
		cols, n := p.EmitCols(schema, false)
		return appendRows(nil, cols, n)
	}
	batches := cutBatches(rel, BatchSize).batches
	var read float64
	for i, b := range batches {
		if err := pane.ObserveBatch(b, -1); err != nil {
			t.Fatal(err)
		}
		if err := whole.ObserveBatch(b, -1); err != nil {
			t.Fatal(err)
		}
		want := emit(whole)
		var reads [2]float64
		for k := range reads {
			before := budget.Stats().ReadSeconds
			snap := pane.Snapshot()
			reads[k] = budget.Stats().ReadSeconds - before
			requireIdenticalRows(t, want, emit(snap))
		}
		if spilled := float64(budget.Stats().SpilledBytes); reads[0] != spilled || reads[1] != spilled {
			t.Fatalf("batch %d: two snapshots read %v bytes back, %v were spilled", i, reads, spilled)
		}
		read = reads[0]
	}
	if read == 0 {
		t.Fatal("the pane never spilled")
	}
}

// TestGraceJoinStreamsProbe: a grace-priced join probes batch by batch,
// as without a budget: its first output batch comes before its probe
// stream ends, and its rows are the unbudgeted join's.
func TestGraceJoinStreamsProbe(t *testing.T) {
	dim, fact := randRel(8, 900), randRel(7, 6*BatchSize)
	want := collectRows(t, RowsOf(mustJoin(t, NewBatchScan(dim), NewBatchScan(fact), 0, 0, nil)))
	pulls := &atomic.Int64{}
	jn := mustJoin(t, NewBatchScan(dim), &pullCounter{BatchOp: NewBatchScan(fact), pulls: pulls}, 0, 0, tinyBudget(256))
	first, err := jn.NextBatch()
	if err != nil || first == nil {
		t.Fatalf("first batch %v, err %v", first, err)
	}
	if jn.core.grace == nil {
		t.Fatal("a 256-byte budget left the join out of grace mode")
	}
	if n := pulls.Load(); n != 1 {
		t.Fatalf("the first output batch took %d probe batches of 6: the probe drained", n)
	}
	requireSameRows(t, want, collectRows(t, RowsOf(&headFirst{BatchOp: jn, head: first})))
	if st := jn.Stats().Spill; st == nil || st.MaxDepth == 0 {
		t.Fatalf("the grace join priced no pass: %+v", st)
	}
}

// TestSpillStatsOrderFree: one multiset of spill charges, fed from many
// goroutines in shuffled orders, prices to bit-identical stats, per
// operator and per query: the meters count integers, and the budget
// prices the totals once, when they are read.
func TestSpillStatsOrderFree(t *testing.T) {
	type charge struct {
		writes, writeBytes, reads, readBytes int64
		depth                                int // > 0: a partition evicted at that depth
	}
	rng := rand.New(rand.NewSource(47))
	charges := make([]charge, 3000)
	for i := range charges {
		n := rng.Int63n(1<<20) + 1
		switch rng.Intn(3) {
		case 0: // a partition written out
			charges[i] = charge{writes: 1, writeBytes: n, depth: rng.Intn(maxGraceDepth) + 1}
		case 1: // a read-back
			charges[i] = charge{reads: 1, readBytes: n}
		default: // a grace leaf's probe bytes, and maybe its pass
			a := int64(rng.Intn(2))
			charges[i] = charge{writes: a, writeBytes: n, reads: 2 * a, readBytes: n + a*rng.Int63n(1<<16)}
		}
	}
	const streams = 8
	var want [3]SpillStats
	for trial := range 6 {
		b := NewMemoryBudget(1, flatDev{})
		// Charge i always lands on meter i%2, the second on a forked budget.
		meters := [2]*spillMeter{newSpillMeter(b), newSpillMeter(b.Fork())}
		order := rng.Perm(len(charges))
		var wg sync.WaitGroup
		for s := range streams {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := s; k < len(order); k += streams {
					i := order[k]
					c, m := charges[i], meters[i%2]
					if c.depth > 0 {
						m.evict(c.depth, c.writeBytes)
					} else {
						m.charge(c.writes, c.writeBytes, c.reads, c.readBytes)
					}
				}
			}()
		}
		wg.Wait()
		got := [3]SpillStats{b.Stats(), *meters[0].opSpill(), *meters[1].opSpill()}
		if trial == 0 {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("trial %d priced %+v, trial 0 %+v", trial, got, want)
		}
	}
}
