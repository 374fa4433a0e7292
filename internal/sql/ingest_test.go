package sql

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/relational"
	"repro/internal/stream"
)

// plainColumns transposes stream rows into column vectors whose String
// column is plain.
func plainColumns(rows []relational.Row) []relational.Vector {
	k := relational.Vector{T: relational.String}
	tm := relational.Vector{T: relational.Int}
	v := relational.Vector{T: relational.Int}
	for _, r := range rows {
		k.Strs = append(k.Strs, r[0].S)
		tm.Ints = append(tm.Ints, r[1].I)
		v.Ints = append(v.Ints, r[2].I)
	}
	return []relational.Vector{k, tm, v}
}

// TestDictCodedIngestMatchesPlain feeds one event stream, with a new key
// arriving in mid-stream every few batches, to twin tables: one through
// AppendRows, whose String column is coded from the first batch on and
// stays coded as it grows, and one through AppendColumns with plain
// String vectors, which the table adopts and keeps. On one and four shards
// every ingest acknowledgement (bytes and modeled net seconds included),
// every read after an append and every subscription window must be
// identical between the twins.
func TestDictCodedIngestMatchesPlain(t *testing.T) {
	const read = "SELECT k, COUNT(*) AS n, SUM(v) AS total FROM events GROUP BY k ORDER BY total DESC, k"
	spec := stream.WindowSpec{TimeCol: "t", Size: 16, Slide: 4, Lateness: 3}
	batches := streamBatches(3000, 150)
	for b, rows := range batches {
		if b%3 == 1 {
			rows[b%len(rows)][0] = relational.StringV(fmt.Sprint("mid", b))
		}
	}
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprint("shards=", shards), func(t *testing.T) {
			var twins [2]*Engine
			var wins [2]chan []stream.Window
			var subs [2]*stream.Subscription
			for i := range twins {
				twins[i] = streamEngine(t, func(c *Config) { c.Distributed = true; c.Shards = shards })
				sub, err := twins[i].Session().Subscribe(context.Background(), contQuery, spec)
				if err != nil {
					t.Fatal(err)
				}
				subs[i], wins[i] = sub, make(chan []stream.Window, 1)
				go func() {
					var ws []stream.Window
					for w := range sub.Out() {
						ws = append(ws, w)
					}
					wins[i] <- ws
				}()
			}
			coded, plain := twins[0], twins[1]
			for b, rows := range batches {
				ackC, err := coded.AppendRows("events", rows)
				if err != nil {
					t.Fatal(err)
				}
				ackP, err := plain.AppendColumns("events", plainColumns(rows), len(rows))
				if err != nil {
					t.Fatal(err)
				}
				if ackC != ackP || (shards > 1 && ackC.NetSeconds == 0) {
					t.Fatalf("batch %d: acks differ: coded %+v, plain %+v", b, ackC, ackP)
				}
				if b%4 != 3 {
					continue
				}
				var got [2][]relational.Row
				for i, eng := range twins {
					res, err := eng.Session().Query(context.Background(), read)
					if err != nil {
						t.Fatal(err)
					}
					got[i] = res.Rows.RowView()
				}
				if !reflect.DeepEqual(got[0], got[1]) {
					t.Fatalf("read after batch %d: coded %v\nplain %v", b, got[0], got[1])
				}
			}
			for i, eng := range twins {
				if err := eng.CloseStream("events"); err != nil {
					t.Fatal(err)
				}
				<-subs[i].Done()
			}
			wc, wp := <-wins[0], <-wins[1]
			if len(wc) < 10 || len(wc) != len(wp) {
				t.Fatalf("coded twin emitted %d windows, plain %d", len(wc), len(wp))
			}
			for i := range wc {
				c, p := wc[i], wp[i]
				if c.Start != p.Start || c.End != p.End || c.Events != p.Events || c.Late != p.Late ||
					!reflect.DeepEqual(c.Rows.RowView(), p.Rows.RowView()) {
					t.Fatalf("window %d differs:\ncoded [%d,%d) %d events %v\nplain [%d,%d) %d events %v",
						i, c.Start, c.End, c.Events, c.Rows.RowView(), p.Start, p.End, p.Events, p.Rows.RowView())
				}
			}
			rc, _ := coded.Table("events")
			rp, _ := plain.Table("events")
			kc, kp := rc.Columnar()[0], rp.Columnar()[0]
			if kc.Dict == nil || kp.Dict != nil {
				t.Fatalf("coded twin's key coded=%v, plain twin's coded=%v", kc.Dict != nil, kp.Dict != nil)
			}
			distinct := map[string]bool{}
			for _, rows := range batches {
				for _, r := range rows {
					distinct[r[0].S] = true
				}
			}
			if kc.Dict.Len() != len(distinct) {
				t.Fatalf("coded twin's dictionary holds %d entries, the stream %d keys", kc.Dict.Len(), len(distinct))
			}
		})
	}
}
