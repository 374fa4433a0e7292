package stream

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"runtime/metrics"
	"testing"
	"time"

	"repro/internal/memtier"
	"repro/internal/relational"
)

// Event source schema: k String, t Int (event time), v Int.
var srcSchema = relational.Schema{
	{Name: "k", Type: relational.String},
	{Name: "t", Type: relational.Int},
	{Name: "v", Type: relational.Int},
}

func ev(k string, t, v int64) relational.Row {
	return relational.Row{relational.StringV(k), relational.IntV(t), relational.IntV(v)}
}

// batch is rows as the hub publishes them: a column-built relation.
func batch(t testing.TB, rows []relational.Row) *relational.Relation {
	t.Helper()
	rel, err := relational.NewRelation("events", srcSchema).Extend(rows)
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

// testQuery is "SELECT k, SUM(v), COUNT(*) FROM events GROUP BY k"
// compiled by hand (the sql layer's compiler is exercised in its own
// package; these tests isolate the window machinery).
func testQuery(t testing.TB, budget *relational.MemoryBudget) *Query {
	pre := relational.Schema{
		{Name: "g0", Type: relational.String},
		{Name: "a0", Type: relational.Int},
	}
	groups := []int{0}
	aggs := []relational.AggSpec{
		{Fn: relational.SumAgg, Col: 1, Name: "sum(v)"},
		{Fn: relational.CountAgg, Col: -1, Name: "count(*)"},
	}
	aggSchema, err := relational.AggOutputSchema(pre, groups, aggs)
	if err != nil {
		t.Fatal(err)
	}
	return &Query{
		Table:     "events",
		TimeCol:   1,
		Pre:       []relational.ProjExpr{relational.Pick(0), relational.Pick(2)},
		PreSchema: pre,
		GroupCols: groups,
		AggSpecs:  aggs,
		AggSchema: aggSchema,
		Out:       []relational.ProjExpr{relational.Pick(0), relational.Pick(1), relational.Pick(2)},
		OutSchema: aggSchema,
		Budget:    budget,
	}
}

// oracle computes the window [s, e) answer by brute force: per key in
// first-seen (append) order, sum and count of the events inside.
func oracle(events []relational.Row, s, e int64) []relational.Row {
	var order []string
	sums := map[string]int64{}
	counts := map[string]int64{}
	for _, r := range events {
		t := r[1].I
		if t < s || t >= e {
			continue
		}
		k := r[0].S
		if _, ok := sums[k]; !ok {
			order = append(order, k)
		}
		sums[k] += r[2].I
		counts[k]++
	}
	out := make([]relational.Row, 0, len(order))
	for _, k := range order {
		out = append(out, relational.Row{relational.StringV(k), relational.IntV(sums[k]), relational.IntV(counts[k])})
	}
	return out
}

func checkWindows(t *testing.T, events []relational.Row, wins []Window) {
	t.Helper()
	for _, w := range wins {
		want := oracle(events, w.Start, w.End)
		if !reflect.DeepEqual(w.Rows.RowView(), want) {
			t.Fatalf("window [%d,%d):\n got %v\nwant %v", w.Start, w.End, w.Rows.RowView(), want)
		}
		if len(want) == 0 {
			t.Fatalf("empty window [%d,%d) emitted", w.Start, w.End)
		}
	}
}

func runWindower(t *testing.T, spec WindowSpec, budget *relational.MemoryBudget, batches ...[]relational.Row) ([]Window, *windower) {
	t.Helper()
	spec, err := spec.normalize()
	if err != nil {
		t.Fatal(err)
	}
	w := newWindower(testQuery(t, budget), spec)
	var wins []Window
	for _, b := range batches {
		out, err := w.observe(batch(t, b))
		if err != nil {
			t.Fatal(err)
		}
		wins = append(wins, out...)
	}
	out, err := w.flush()
	if err != nil {
		t.Fatal(err)
	}
	return append(wins, out...), w
}

// TestTumblingWindows: in-order events over abutting windows, emission
// driven by the watermark, remainder flushed at close.
func TestTumblingWindows(t *testing.T) {
	var events []relational.Row
	for i := int64(0); i < 26; i++ {
		k := "a"
		if i%2 == 1 {
			k = "b"
		}
		events = append(events, ev(k, i, i))
	}
	spec := WindowSpec{TimeCol: "t", Size: 10}
	wins, w := runWindower(t, spec, nil, events)
	if len(wins) != 3 {
		t.Fatalf("want 3 windows, got %d", len(wins))
	}
	for i, s := range []int64{0, 10, 20} {
		if wins[i].Start != s || wins[i].End != s+10 {
			t.Fatalf("window %d is [%d,%d), want [%d,%d)", i, wins[i].Start, wins[i].End, s, s+10)
		}
	}
	checkWindows(t, events, wins)
	if w.events != 26 || w.late != 0 || w.dropped != 0 {
		t.Fatalf("counters: events=%d late=%d dropped=%d", w.events, w.late, w.dropped)
	}
	// The first two windows emitted before close (watermark 25 > 20).
	out, err := newWindower(testQuery(t, nil), mustNorm(t, spec)).observe(batch(t, events))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("watermark should emit 2 windows before close, got %d", len(out))
	}
}

func mustNorm(t *testing.T, spec WindowSpec) WindowSpec {
	t.Helper()
	s, err := spec.normalize()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSlidingWindows: overlapping windows — every event lands in
// Size/Slide windows, pane merges must match brute force.
func TestSlidingWindows(t *testing.T) {
	var events []relational.Row
	for i := int64(0); i < 20; i++ {
		events = append(events, ev(fmt.Sprintf("k%d", i%3), i, i*i))
	}
	wins, _ := runWindower(t, WindowSpec{TimeCol: "t", Size: 6, Slide: 2}, nil, events)
	checkWindows(t, events, wins)
	// Every event is covered by 3 windows: starts -4..18 step 2.
	if len(wins) != 12 {
		t.Fatalf("want 12 windows, got %d", len(wins))
	}
	if wins[0].Start != -4 || wins[len(wins)-1].Start != 18 {
		t.Fatalf("window range [%d..%d]", wins[0].Start, wins[len(wins)-1].Start)
	}
}

// TestEmptyWindowsSkipped: a time gap produces no empty emissions.
func TestEmptyWindowsSkipped(t *testing.T) {
	events := []relational.Row{ev("a", 1, 1), ev("a", 100, 2), ev("a", 105, 3)}
	wins, _ := runWindower(t, WindowSpec{TimeCol: "t", Size: 10}, nil, events)
	if len(wins) != 2 {
		t.Fatalf("want 2 non-empty windows, got %d: %+v", len(wins), wins)
	}
	checkWindows(t, events, wins)
}

// TestLateAndDropped: an event behind the max time but inside an open
// window is late-but-counted; an event whose windows all emitted is
// dropped and appears in no window.
func TestLateAndDropped(t *testing.T) {
	spec := WindowSpec{TimeCol: "t", Size: 10}
	q := testQuery(t, nil)
	w := newWindower(q, mustNorm(t, spec))
	wins, err := w.observe(batch(t, []relational.Row{ev("a", 5, 1), ev("a", 12, 1)}))
	if err != nil {
		t.Fatal(err)
	}
	if len(wins) != 1 || wins[0].Start != 0 {
		t.Fatalf("watermark 12 should seal [0,10): %+v", wins)
	}
	// t=3: its only window [0,10) has emitted — dropped.
	wins, err = w.observe(batch(t, []relational.Row{ev("a", 3, 100)}))
	if err != nil {
		t.Fatal(err)
	}
	if len(wins) != 0 || w.dropped != 1 {
		t.Fatalf("expected a silent drop, wins=%v dropped=%d", wins, w.dropped)
	}
	// t=11: late (behind max 12) but [10,20) is open — included.
	if _, err = w.observe(batch(t, []relational.Row{ev("a", 11, 5)})); err != nil {
		t.Fatal(err)
	}
	if w.late != 1 {
		t.Fatalf("late=%d, want 1", w.late)
	}
	out, err := w.flush()
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Start != 10 {
		t.Fatalf("flush: %+v", out)
	}
	// [10,20) holds t=12 (v=1) and the late t=11 (v=5).
	want := []relational.Row{{relational.StringV("a"), relational.IntV(6), relational.IntV(2)}}
	if !reflect.DeepEqual(out[0].Rows.RowView(), want) {
		t.Fatalf("late event lost: %v want %v", out[0].Rows.RowView(), want)
	}
	if out[0].Late != 1 || out[0].Events != 2 {
		t.Fatalf("window accounting: %+v", out[0])
	}
}

// TestLatenessDelaysEmission: the watermark trails max event time by
// Lateness, so disorder within the allowance is never even late.
func TestLatenessDelaysEmission(t *testing.T) {
	spec := WindowSpec{TimeCol: "t", Size: 10, Lateness: 5}
	w := newWindower(testQuery(t, nil), mustNorm(t, spec))
	wins, err := w.observe(batch(t, []relational.Row{ev("a", 5, 1), ev("a", 14, 1)}))
	if err != nil {
		t.Fatal(err)
	}
	if len(wins) != 0 {
		t.Fatalf("watermark 9 must not seal [0,10): %+v", wins)
	}
	wins, err = w.observe(batch(t, []relational.Row{ev("a", 15, 1)}))
	if err != nil {
		t.Fatal(err)
	}
	if len(wins) != 1 || wins[0].Start != 0 {
		t.Fatalf("watermark 10 seals [0,10): %+v", wins)
	}
}

// disorderedEvents is a deterministic stream with bounded disorder (an
// LCG shuffles event times within a small horizon).
func disorderedEvents(n int, keys int, disorder int64) []relational.Row {
	events := make([]relational.Row, 0, n)
	seed := int64(12345)
	for i := 0; i < n; i++ {
		seed = (seed*1103515245 + 12347) % (1 << 31)
		jitter := seed % (disorder + 1)
		t := int64(i) - jitter
		if t < 0 {
			t = 0
		}
		events = append(events, ev(fmt.Sprintf("k%d", seed%int64(keys)), t, seed%97))
	}
	return events
}

// TestRecomputeAndBudgetParity: the incremental path, the recompute
// baseline, and a budget so tight every pane spills must all emit
// identical windows. Sliding windows make each pane feed several
// emissions, so this also proves snapshots never alias mutable state.
func TestRecomputeAndBudgetParity(t *testing.T) {
	events := disorderedEvents(3000, 7, 4)
	spec := WindowSpec{TimeCol: "t", Size: 40, Slide: 10, Lateness: 4}
	var batches [][]relational.Row
	for i := 0; i < len(events); i += 100 {
		batches = append(batches, events[i:min(i+100, len(events)):min(i+100, len(events))])
	}
	inc, wInc := runWindower(t, spec, nil, batches...)
	rec, _ := runWindower(t, WindowSpec{TimeCol: "t", Size: 40, Slide: 10, Lateness: 4, Recompute: true}, nil, batches...)
	dev, err := memtier.NewSpillDevice("ssd")
	if err != nil {
		t.Fatal(err)
	}
	budget := relational.NewMemoryBudget(1<<11, dev)
	bud, _ := runWindower(t, spec, budget, batches...)

	if wInc.dropped != 0 {
		t.Fatalf("disorder within lateness must not drop: %d", wInc.dropped)
	}
	diff := func(name string, got []Window) {
		t.Helper()
		if len(got) != len(inc) {
			t.Fatalf("%s emitted %d windows, incremental %d", name, len(got), len(inc))
		}
		for i := range got {
			if got[i].Start != inc[i].Start || !reflect.DeepEqual(got[i].Rows.RowView(), inc[i].Rows.RowView()) {
				t.Fatalf("%s window %d diverges:\n got [%d) %v\nwant [%d) %v",
					name, i, got[i].Start, got[i].Rows.RowView(), inc[i].Start, inc[i].Rows.RowView())
			}
		}
	}
	diff("recompute", rec)
	diff("budgeted", bud)
	checkWindows(t, events, inc)
	st := budget.Stats()
	if st.Partitions == 0 || st.SpilledBytes <= 0 {
		t.Fatalf("2KiB budget on 3000 events must spill: %+v", st)
	}
}

// TestHubDelivery: publish order in, window order out, close flushes,
// a subscription arriving after close completes immediately.
func TestHubDelivery(t *testing.T) {
	h := NewHub()
	spec := WindowSpec{TimeCol: "t", Size: 10}
	sub, err := h.Subscribe(context.Background(), testQuery(t, nil), spec, batch(t, []relational.Row{ev("a", 0, 1)}))
	if err != nil {
		t.Fatal(err)
	}
	h.Publish("events", batch(t, []relational.Row{ev("a", 5, 2)}))
	h.Publish("events", batch(t, []relational.Row{ev("b", 15, 3)}))
	h.CloseTable("events")
	var wins []Window
	for w := range sub.Out() {
		wins = append(wins, w)
	}
	<-sub.Done()
	if err := sub.Err(); err != nil {
		t.Fatal(err)
	}
	if len(wins) != 2 {
		t.Fatalf("want 2 windows, got %+v", wins)
	}
	if wins[0].FreshnessSeconds < 0 {
		t.Fatalf("freshness: %v", wins[0].FreshnessSeconds)
	}
	st := sub.Stats()
	if st.Events != 3 || st.Windows != 2 || st.FreshnessMax < st.FreshnessP50 {
		t.Fatalf("stats: %+v", st)
	}
	if !h.TableClosed("events") {
		t.Fatal("table not marked closed")
	}
	late, err := h.Subscribe(context.Background(), testQuery(t, nil), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := <-late.Out(); ok {
		t.Fatal("post-close subscription emitted")
	}
	<-late.Done()
}

// TestSubscriptionCancel: cancelling the context closes the stream
// without a flush, reports the cause, and leaks no goroutine even when
// the consumer never reads (the emission send must also honour ctx).
func TestSubscriptionCancel(t *testing.T) {
	baseline := runtime.NumGoroutine()
	h := NewHub()
	ctx, cancel := context.WithCancel(context.Background())
	// Buffer 1 and no consumer: the second window blocks in the send.
	spec := WindowSpec{TimeCol: "t", Size: 5, Buffer: 1}
	sub, err := h.Subscribe(ctx, testQuery(t, nil), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 40; i += 2 {
		h.Publish("events", batch(t, []relational.Row{ev("a", i, 1)}))
	}
	cancel()
	select {
	case <-sub.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("subscription did not stop after cancel")
	}
	if err := sub.Err(); err != context.Canceled {
		t.Fatalf("Err() = %v, want context.Canceled", err)
	}
	// Publishing to a removed subscription is a no-op.
	h.Publish("events", batch(t, []relational.Row{ev("a", 100, 1)}))
	for range 100 {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d > baseline %d", runtime.NumGoroutine(), baseline)
}

// liveHeap is the heap's live object bytes after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// TestSubscribeBacklogBound: a subscriber that never reads while ingest
// publishes three times MaxQueuedRows. Every Publish returns, the
// subscription ends with ErrBacklog, the queued batches are released,
// and a subscription on another table still ends cleanly.
func TestSubscribeBacklogBound(t *testing.T) {
	h := NewHub()
	spec := WindowSpec{TimeCol: "t", Size: 64, Buffer: 1}
	stuck, err := h.Subscribe(context.Background(), testQuery(t, nil), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	otherQ := testQuery(t, nil)
	otherQ.Table = "other"
	other, err := h.Subscribe(context.Background(), otherQ, spec, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Every batch owns only its event-time column: key and value cells
	// are shared, so the heap grows by 8 bytes per queued row.
	const n = 1 << 14
	keys, vals := make([]string, n), make([]int64, n)
	for i := range keys {
		keys[i] = "a"
	}
	next := int64(0)
	publish := func(table string) {
		ts := make([]int64, n)
		for i := range ts {
			ts[i] = next
			next++
		}
		h.Publish(table, relational.NewColumnRelation(table, srcSchema, []relational.Vector{
			{T: relational.String, Strs: keys}, {T: relational.Int, Ints: ts}, {T: relational.Int, Ints: vals},
		}, n))
	}
	before := liveHeap()
	for range 3 * MaxQueuedRows / n {
		publish("events")
	}
	select {
	case <-stuck.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("backlogged subscription did not end")
	}
	if err := stuck.Err(); err != ErrBacklog {
		t.Fatalf("Err() = %v, want ErrBacklog", err)
	}
	if grown := int64(liveHeap()) - int64(before); grown > 8*MaxQueuedRows/2 {
		t.Fatalf("heap grew %d bytes after the backlog ended; the queue was not released", grown)
	}

	publish("other")
	h.CloseTable("other")
	wins := 0
	for range other.Out() {
		wins++
	}
	if err := other.Err(); err != nil || wins != n/64 {
		t.Fatalf("other table: %d windows, Err %v; want %d windows, nil", wins, err, n/64)
	}
}

// TestWindowSpecValidation: the rejection matrix of normalize.
func TestWindowSpecValidation(t *testing.T) {
	bad := []WindowSpec{
		{Size: 10},                            // no time column
		{TimeCol: "t"},                        // no size
		{TimeCol: "t", Size: -1},              // negative size
		{TimeCol: "t", Size: 4, Slide: 8},     // sampling gap
		{TimeCol: "t", Size: 4, Slide: -2},    // negative slide
		{TimeCol: "t", Size: 4, Lateness: -1}, // negative lateness
	}
	for _, s := range bad {
		if _, err := s.normalize(); err == nil {
			t.Fatalf("spec %+v must not normalize", s)
		}
	}
	got := mustNorm(t, WindowSpec{TimeCol: "t", Size: 8})
	if got.Slide != 8 || got.Buffer != 16 || !got.Tumbling() {
		t.Fatalf("defaults: %+v", got)
	}
}

// TestSourceLifecycle: append-after-close errors, stats accumulate.
func TestSourceLifecycle(t *testing.T) {
	var got int
	src := NewSource("events", func(rows []relational.Row) (Ingest, error) {
		got += len(rows)
		return Ingest{Rows: len(rows), Bytes: 8}, nil
	}, nil)
	if err := src.Append(ev("a", 1, 1), ev("a", 2, 1)); err != nil {
		t.Fatal(err)
	}
	src.Close()
	src.Close() // idempotent
	if err := src.Append(ev("a", 3, 1)); err == nil {
		t.Fatal("append after close must error")
	}
	st := src.Stats()
	if got != 2 || st.Batches != 1 || st.Rows != 2 || st.Bytes != 8 {
		t.Fatalf("stats: got=%d %+v", got, st)
	}
}

// BenchmarkSlidingWindowMaintenance is the PR's acceptance benchmark: a
// 1M-event sliding-window workload where incremental pane maintenance
// must beat full per-window recomputation by at least 2x. The assertion
// lives in the benchmark so a regression fails CI's bench step, not
// just drifts.
func BenchmarkSlidingWindowMaintenance(b *testing.B) {
	const n = 1_000_000
	rows := make([]relational.Row, 0, n)
	seed := int64(99991)
	for i := 0; i < n; i++ {
		seed = (seed*1103515245 + 12347) % (1 << 31)
		rows = append(rows, ev(fmt.Sprintf("k%02d", seed%100), int64(i), seed%7))
	}
	events := batch(b, rows)
	run := func(recompute bool) (time.Duration, int) {
		spec := mustNorm2(b, WindowSpec{TimeCol: "t", Size: 20_000, Slide: 1_000, Recompute: recompute})
		w := newWindower(testQuery(b, nil), spec)
		start := time.Now()
		emitted := 0
		for i := 0; i < n; i += 10_000 {
			wins, err := w.observe(events.Slice(i, i+10_000))
			if err != nil {
				b.Fatal(err)
			}
			emitted += len(wins)
		}
		wins, err := w.flush()
		if err != nil {
			b.Fatal(err)
		}
		return time.Since(start), emitted + len(wins)
	}
	b.ResetTimer()
	var incr, rec time.Duration
	for i := 0; i < b.N; i++ {
		di, wi := run(false)
		dr, wr := run(true)
		if wi != wr || wi == 0 {
			b.Fatalf("window counts diverge: incremental %d, recompute %d", wi, wr)
		}
		incr += di
		rec += dr
	}
	ratio := float64(rec) / float64(incr)
	b.ReportMetric(float64(n)*float64(b.N)/incr.Seconds(), "events/s")
	b.ReportMetric(ratio, "x-vs-recompute")
	if ratio < 2 {
		b.Fatalf("incremental maintenance only %.2fx faster than recomputation (want >= 2x): %v vs %v", ratio, incr/time.Duration(b.N), rec/time.Duration(b.N))
	}
}

func mustNorm2(b *testing.B, spec WindowSpec) WindowSpec {
	b.Helper()
	s, err := spec.normalize()
	if err != nil {
		b.Fatal(err)
	}
	return s
}
