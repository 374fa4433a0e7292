package sql

import (
	"repro/internal/relational"
	"repro/internal/workload"
)

// The demo tables are born as columns: each constructor copies the
// generator's fields straight into typed vectors and returns a
// column-built relation, the form the batch engine reads. No Row is built
// and the first query pays no transpose; RowView boxes rows on demand.
// String columns go through relational.StringVector, which codes the
// low-cardinality ones (region, product, segment, country) over a
// dictionary and leaves customers.name plain.

// SalesRelation converts the synthetic star-schema fact table into a
// column-built relation named "sales".
func SalesRelation(seed uint64, n, customers int) *relational.Relation {
	oid, cid, qty, year := make([]int64, n), make([]int64, n), make([]int64, n), make([]int64, n)
	region, product := make([]string, n), make([]string, n)
	price, discount := make([]float64, n), make([]float64, n)
	for i, r := range workload.Sales(seed, n, customers) {
		oid[i], cid[i], region[i], product[i] = r.OrderID, r.CustomerID, r.Region, r.Product
		qty[i], price[i], discount[i], year[i] = r.Quantity, r.Price, r.Discount, r.Year
	}
	return relational.NewColumnRelation("sales", relational.Schema{
		{Name: "order_id", Type: relational.Int},
		{Name: "customer_id", Type: relational.Int},
		{Name: "region", Type: relational.String},
		{Name: "product", Type: relational.String},
		{Name: "quantity", Type: relational.Int},
		{Name: "price", Type: relational.Float},
		{Name: "discount", Type: relational.Float},
		{Name: "year", Type: relational.Int},
	}, []relational.Vector{
		{T: relational.Int, Ints: oid},
		{T: relational.Int, Ints: cid},
		relational.StringVector(region),
		relational.StringVector(product),
		{T: relational.Int, Ints: qty},
		{T: relational.Float, Floats: price},
		{T: relational.Float, Floats: discount},
		{T: relational.Int, Ints: year},
	}, n)
}

// CustomersRelation converts the customer dimension into a column-built
// relation named "customers".
func CustomersRelation(seed uint64, n int) *relational.Relation {
	cid := make([]int64, n)
	name, segment, country := make([]string, n), make([]string, n), make([]string, n)
	for i, r := range workload.Customers(seed, n) {
		cid[i], name[i], segment[i], country[i] = r.CustomerID, r.Name, r.Segment, r.Country
	}
	return relational.NewColumnRelation("customers", relational.Schema{
		{Name: "customer_id", Type: relational.Int},
		{Name: "name", Type: relational.String},
		{Name: "segment", Type: relational.String},
		{Name: "country", Type: relational.String},
	}, []relational.Vector{
		{T: relational.Int, Ints: cid},
		relational.StringVector(name),
		relational.StringVector(segment),
		relational.StringVector(country),
	}, n)
}

// RegisterDemo loads the sales fact table and customers dimension into
// an engine — the standard playground for the SQL examples, benchmarks
// and experiments. Both are range-placed; PlaceDemo co-places them.
func RegisterDemo(e *Engine, seed uint64, salesRows, customers int) {
	e.Register(SalesRelation(seed, salesRows, customers))
	e.Register(CustomersRelation(seed+1, customers))
}

// PlaceDemo hash-places the demo tables on their join key, customer_id,
// so a distributed sales–customers join moves nothing (see Engine.Place).
func PlaceDemo(e *Engine) error {
	for _, table := range []string{"sales", "customers"} {
		if err := e.Place(table, "customer_id"); err != nil {
			return err
		}
	}
	return nil
}
