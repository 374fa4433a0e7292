package sql

import (
	"reflect"

	"repro/internal/relational"
)

// firstIntColumn names rel's first Int column, or its column 0 when it has
// none: where the hash-placed twins of the parity suites place a table.
func firstIntColumn(rel *relational.Relation) string {
	for _, c := range rel.Schema {
		if c.Type == relational.Int {
			return c.Name
		}
	}
	return rel.Schema[0].Name
}

// testDB is a catalog beside a mutable Config, for tests that sweep
// engine and optimizer settings over the same tables and inspect the
// Planned (operator tags, NetStats) a Session does not hand out. Query
// and Plan run on an engine built from the current Opt, rebuilt only
// when Opt changed since the last call.
type testDB struct {
	Opt  Config
	rels []*relational.Relation
	// placed maps a table to the column its engines hash-place it on.
	placed map[string]string
	eng    *Engine
}

func newTestDB() *testDB { return &testDB{Opt: DefaultConfig()} }

// demoDB is a testDB with the RegisterDemo tables loaded.
func demoDB(seed uint64, salesRows, customers int) *testDB {
	db := newTestDB()
	db.Register(SalesRelation(seed, salesRows, customers))
	db.Register(CustomersRelation(seed+1, customers))
	return db
}

func (db *testDB) Register(rel *relational.Relation) {
	db.rels = append(db.rels, rel)
	db.eng = nil
}

// Place hash-places table on column on the engines the catalog builds
// from now on.
func (db *testDB) Place(table, column string) {
	if db.placed == nil {
		db.placed = map[string]string{}
	}
	db.placed[table] = column
	db.eng = nil
}

// PlaceFirstInt places every registered table on its first Int column
// (firstIntColumn).
func (db *testDB) PlaceFirstInt() {
	for _, rel := range db.rels {
		db.Place(rel.Name, firstIntColumn(rel))
	}
}

func (db *testDB) engine() (*Engine, error) {
	if db.eng == nil || !reflect.DeepEqual(db.eng.Config(), db.Opt) {
		eng, err := NewEngine(db.Opt)
		if err != nil {
			return nil, err
		}
		for _, rel := range db.rels {
			eng.Register(rel)
		}
		for table, column := range db.placed {
			if err := eng.Place(table, column); err != nil {
				return nil, err
			}
		}
		db.eng = eng
	}
	return db.eng, nil
}

// Plan parses and plans without executing; the plan is single-use.
func (db *testDB) Plan(q string) (*Planned, error) {
	eng, err := db.engine()
	if err != nil {
		return nil, err
	}
	stmt, err := Parse(q)
	if err != nil {
		return nil, err
	}
	return (&planner{eng: eng, cfg: db.Opt}).planStmt(stmt)
}

// Query plans and executes, returning the result with its row view taken
// (batch and distributed results arrive column-built, Rows nil), so tests
// may index rel.Rows on every engine.
func (db *testDB) Query(q string) (*relational.Relation, error) {
	plan, err := db.Plan(q)
	if err != nil {
		return nil, err
	}
	rel, err := plan.Run()
	if err != nil {
		return nil, err
	}
	rel.RowView()
	return rel, nil
}
