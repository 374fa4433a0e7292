package sql

import (
	"repro/internal/relational"
	"repro/internal/workload"
)

// SalesRelation converts the synthetic star-schema fact table into a
// relation named "sales".
func SalesRelation(seed uint64, n, customers int) *relational.Relation {
	rel := relational.NewRelation("sales", relational.Schema{
		{Name: "order_id", Type: relational.Int},
		{Name: "customer_id", Type: relational.Int},
		{Name: "region", Type: relational.String},
		{Name: "product", Type: relational.String},
		{Name: "quantity", Type: relational.Int},
		{Name: "price", Type: relational.Float},
		{Name: "discount", Type: relational.Float},
		{Name: "year", Type: relational.Int},
	})
	for _, r := range workload.Sales(seed, n, customers) {
		rel.MustAppend(relational.Row{
			relational.IntV(r.OrderID),
			relational.IntV(r.CustomerID),
			relational.StringV(r.Region),
			relational.StringV(r.Product),
			relational.IntV(r.Quantity),
			relational.FloatV(r.Price),
			relational.FloatV(r.Discount),
			relational.IntV(r.Year),
		})
	}
	return rel
}

// CustomersRelation converts the customer dimension into a relation named
// "customers".
func CustomersRelation(seed uint64, n int) *relational.Relation {
	rel := relational.NewRelation("customers", relational.Schema{
		{Name: "customer_id", Type: relational.Int},
		{Name: "name", Type: relational.String},
		{Name: "segment", Type: relational.String},
		{Name: "country", Type: relational.String},
	})
	for _, r := range workload.Customers(seed, n) {
		rel.MustAppend(relational.Row{
			relational.IntV(r.CustomerID),
			relational.StringV(r.Name),
			relational.StringV(r.Segment),
			relational.StringV(r.Country),
		})
	}
	return rel
}

// RegisterDemo loads the sales fact table and customers dimension into
// an engine — the standard playground for the SQL examples, benchmarks
// and experiments.
func RegisterDemo(e *Engine, seed uint64, salesRows, customers int) {
	e.Register(SalesRelation(seed, salesRows, customers))
	e.Register(CustomersRelation(seed+1, customers))
}
