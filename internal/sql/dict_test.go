package sql

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/relational"
)

// joinClassSQL is the repository benchmark's join statement.
const joinClassSQL = "SELECT c.segment, COUNT(*) AS n, SUM(s.price * (1 - s.discount)) AS net " +
	"FROM sales s JOIN customers c ON s.customer_id = c.customer_id " +
	"WHERE s.year >= 2012 GROUP BY c.segment ORDER BY net DESC"

// plainTwin returns rel rebuilt with every String column plain: the same
// cells, no dictionary.
func plainTwin(rel *relational.Relation) *relational.Relation {
	cols := append([]relational.Vector(nil), rel.Columnar()...)
	for c := range cols {
		if cols[c].T != relational.String {
			continue
		}
		strs := make([]string, cols[c].Len())
		for i := range strs {
			strs[i] = cols[c].Str(i)
		}
		cols[c] = relational.Vector{T: relational.String, Strs: strs}
	}
	return relational.NewColumnRelation(rel.Name, rel.Schema, cols, rel.Len())
}

// TestDictCodedJoinPinsModeledClock: the join statement on a 4-shard
// engine, unbudgeted and at a 2% memory budget, returns the same rows and
// the same modeled network and spill figures over the dictionary-coded
// demo tables as over plain twins of them — coding is a host-clock change
// only, since every byte count reads the decoded strings.
func TestDictCodedJoinPinsModeledClock(t *testing.T) {
	const seed, rows, customers = 29, 20000, 5000
	sales, cust := SalesRelation(seed, rows, customers), CustomersRelation(seed+1, customers)
	for _, c := range []struct {
		rel *relational.Relation
		col string
	}{{sales, "region"}, {sales, "product"}, {cust, "segment"}, {cust, "country"}} {
		if c.rel.Columnar()[c.rel.Schema.ColIndex(c.col)].Dict == nil {
			t.Fatalf("%s.%s is not dictionary-coded", c.rel.Name, c.col)
		}
	}
	if cust.Columnar()[cust.Schema.ColIndex("name")].Dict != nil {
		t.Fatal("customers.name (all distinct) was coded")
	}
	run := func(tables []*relational.Relation, budget int64) *Result {
		cfg := DefaultConfig()
		cfg.Distributed, cfg.Shards, cfg.Topology = true, 4, "leafspine"
		eng, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, rel := range tables {
			eng.Register(rel)
		}
		sess := eng.Session()
		if budget > 0 {
			sess.MemoryBudget, sess.SpillTier = budget, "ssd"
		}
		res, err := sess.Query(context.Background(), joinClassSQL)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, budget := range []int64{0, int64(0.02 * sales.EncodedBytes())} {
		coded := run([]*relational.Relation{sales, cust}, budget)
		plain := run([]*relational.Relation{plainTwin(sales), plainTwin(cust)}, budget)
		if got, want := coded.Rows.RowView(), plain.Rows.RowView(); !reflect.DeepEqual(got, want) || len(got) == 0 {
			t.Fatalf("budget %d: coded rows\n%v\nplain rows\n%v", budget, got, want)
		}
		cn, pn := coded.Net, plain.Net
		if cn == nil || pn == nil {
			t.Fatalf("budget %d: no network report", budget)
		}
		if !reflect.DeepEqual(cn.Phases, pn.Phases) || cn.Flows != pn.Flows || cn.BytesShuffled != pn.BytesShuffled ||
			cn.NetSeconds != pn.NetSeconds || cn.WallSeconds() != pn.WallSeconds() {
			t.Fatalf("budget %d: network report moved:\ncoded %+v\nplain %+v", budget, cn, pn)
		}
		if budget == 0 {
			if coded.Spill != nil || plain.Spill != nil {
				t.Fatalf("unbudgeted run reported spill: %+v / %+v", coded.Spill, plain.Spill)
			}
			continue
		}
		cs, ps := coded.Spill, plain.Spill
		if cs == nil || ps == nil || !ps.Active() {
			t.Fatalf("budget %d: the plain run never spilled: %+v", budget, ps)
		}
		if cs.Partitions != ps.Partitions || cs.SpilledBytes != ps.SpilledBytes {
			t.Fatalf("budget %d: spill moved: coded %d partitions / %d bytes, plain %d / %d",
				budget, cs.Partitions, cs.SpilledBytes, ps.Partitions, ps.SpilledBytes)
		}
	}
}
