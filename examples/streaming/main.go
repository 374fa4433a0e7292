// streaming demonstrates continuous queries on the relational engine:
// a Poisson sensor stream appended batch-by-batch to a growing relation
// while a subscribed aggregate emits event-time windows as the
// watermark passes them. The lateness sweep shows the disorder
// tradeoff — absorb more out-of-order events by holding windows open
// longer, or emit eagerly and drop stragglers.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"repro/internal/metrics"
	"repro/internal/relational"
	"repro/internal/sim"
	"repro/internal/sql"
	"repro/internal/stream"
)

const contQuery = "SELECT k, SUM(v) AS total, COUNT(*) AS n FROM events GROUP BY k"

func main() {
	log.SetFlags(0)
	durationS := flag.Float64("duration", 60, "stream length in seconds")
	rate := flag.Float64("rate", 500, "events per second")
	windowTicks := flag.Int64("window", 50, "tumbling window length in event-time ticks (10 ticks per second)")
	jitter := flag.Int64("jitter", 4, "max backward event-time disorder in ticks")
	flag.Parse()

	// A Poisson event stream over a handful of sensor keys, quantized to
	// 10 ticks per second, with bounded backward jitter so the arrival
	// order genuinely disagrees with event time.
	rng := sim.NewRNG(99)
	arr := sim.NewPoisson(rng.Split(), *rate)
	keys := []string{"sensor-a", "sensor-b", "sensor-c", "sensor-d"}
	var events []ev
	now := 0.0
	horizon := int64(*durationS) * 10
	for {
		now += float64(arr.NextGap())
		tick := int64(now * 10)
		if tick >= horizon {
			break
		}
		if j := rng.Intn(int(*jitter) + 1); int64(j) <= tick {
			tick -= int64(j)
		}
		events = append(events, ev{
			k: keys[rng.Intn(len(keys))],
			t: tick,
			v: int64(rng.Intn(100)),
		})
	}
	fmt.Printf("%d events over %.0fs (ticks 0..%d, backward jitter <= %d), window %d ticks\n\n",
		len(events), *durationS, horizon-1, *jitter, *windowTicks)

	// Lateness sweep: each run streams the identical events through a
	// fresh engine. Lateness 0 emits the moment the watermark touches a
	// window edge and drops every straggler behind it; absorbing the
	// jitter costs emission delay but loses nothing.
	tab := metrics.NewTable("Lateness sweep (continuous query, identical input)",
		"lateness", "windows", "events", "late", "dropped", "freshness p95 (ms)")
	var zeroDropped map[string]cellKey
	for _, lateness := range []int64{0, *jitter, 4 * *jitter} {
		wins, stats := runContinuous(events, stream.WindowSpec{
			TimeCol: "t", Size: *windowTicks, Lateness: lateness,
		})
		tab.AddRowf(lateness, stats.Windows, stats.Events, stats.Late, stats.Dropped,
			stats.FreshnessP95*1e3)
		if lateness >= *jitter {
			if stats.Dropped != 0 {
				log.Fatalf("lateness %d covers jitter %d but dropped %d events", lateness, *jitter, stats.Dropped)
			}
			cells := collectCells(wins)
			if zeroDropped == nil {
				zeroDropped = cells
			} else if len(cells) != len(zeroDropped) {
				log.Fatalf("drop-free runs disagree: %d vs %d cells", len(cells), len(zeroDropped))
			}
		}
	}
	fmt.Print(tab.Render())
	fmt.Println("\nlateness holds windows open past their end, so nothing bounded by the jitter is lost;")
	fmt.Println("emitting eagerly (lateness 0) trades those stragglers for the freshest possible windows.")

}

type ev struct {
	k string
	t int64
	v int64
}

type cellKey struct{ sum, count int64 }

// runContinuous streams events through a fresh engine under contQuery
// and returns the emitted windows plus the subscription stats.
func runContinuous(events []ev, spec stream.WindowSpec) ([]stream.Window, stream.Stats) {
	eng, err := sql.NewEngine(sql.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	eng.Register(relational.NewRelation("events", relational.Schema{
		{Name: "k", Type: relational.String},
		{Name: "t", Type: relational.Int},
		{Name: "v", Type: relational.Int},
	}))
	sess := eng.Session()
	sub, err := sess.Subscribe(context.Background(), contQuery, spec)
	if err != nil {
		log.Fatal(err)
	}
	src, err := sess.StreamSource("events")
	if err != nil {
		log.Fatal(err)
	}
	go func() {
		defer src.Close()
		const batch = 512
		for off := 0; off < len(events); off += batch {
			end := off + batch
			if end > len(events) {
				end = len(events)
			}
			rows := make([]relational.Row, 0, end-off)
			for _, e := range events[off:end] {
				rows = append(rows, relational.Row{
					relational.StringV(e.k), relational.IntV(e.t), relational.IntV(e.v),
				})
			}
			if err := src.Append(rows...); err != nil {
				log.Fatal(err)
			}
		}
	}()
	var wins []stream.Window
	for w := range sub.Out() {
		wins = append(wins, w)
	}
	if err := sub.Err(); err != nil {
		log.Fatal(err)
	}
	return wins, sub.Stats()
}

// collectCells flattens windows into (windowStart|key) -> sum/count.
func collectCells(wins []stream.Window) map[string]cellKey {
	out := map[string]cellKey{}
	for _, w := range wins {
		for _, row := range w.Rows.RowView() {
			out[fmt.Sprintf("%d|%s", w.Start, row[0].S)] = cellKey{sum: row[1].I, count: row[2].I}
		}
	}
	return out
}
