// Package wire is the canonical JSON encoding of the engine's query
// results and execution reports. Every surface that speaks JSON — the
// rethinkd daemon's responses, the rethink-load harness's latency
// reports, rethink-sql's -json mode — converts through these types, so
// the wire format has exactly one source of truth and a stats field
// added here shows up everywhere at once.
//
// The conversions are lossy only in representation: every number the
// library-level reports carry (dist.QueryStats, netsim stats,
// relational.SpillStats, exec.DeviceStats) maps to one JSON field of the
// same meaning and unit. Rows encode as typed JSON scalars — Int columns
// as JSON numbers (int64-exact), Float as numbers, String as strings —
// in schema column order.
package wire

import (
	"fmt"
	"strings"

	"repro/internal/dist"
	"repro/internal/exec"
	"repro/internal/lifecycle"
	"repro/internal/netsim"
	"repro/internal/relational"
	"repro/internal/sql"
	"repro/internal/stream"
)

// Column is one result-schema column.
type Column struct {
	Name string `json:"name"`
	Type string `json:"type"` // "int", "float", "string"
}

// Result is one executed query on the wire: the materialized rows plus
// the full execution report of sql.Result.
type Result struct {
	Columns []Column `json:"columns"`
	// Rows holds one []any per row: int64, float64 or string cells in
	// column order.
	Rows     [][]any  `json:"rows"`
	RowCount int      `json:"row_count"`
	Steps    []string `json:"steps,omitempty"`
	// Net is the simulated-network report (distributed runs only).
	Net *NetStats `json:"net,omitempty"`
	// Admission is the query's shared-fabric admission report
	// (distributed runs only).
	Admission *PartyStats `json:"admission,omitempty"`
	// Devices is the heterogeneous-placement report (engines with a
	// device set only); Placement names the policy that placed morsels.
	Devices   []DeviceStats `json:"devices,omitempty"`
	Placement string        `json:"placement,omitempty"`
	// Spill is the out-of-core report (budgeted runs only).
	Spill *SpillStats `json:"spill,omitempty"`
	// Stream is the streaming report (results assembled by the streaming
	// subsystem only).
	Stream *StreamStats `json:"stream,omitempty"`
}

// StreamStats mirrors stream.Stats: one streaming subscription's report
// on the wire.
type StreamStats struct {
	// Subscription side: event dispositions, emitted windows, and
	// freshness quantiles over per-window emission delay.
	Events       int64   `json:"events"`
	Filtered     int64   `json:"filtered,omitempty"`
	Late         int64   `json:"late,omitempty"`
	Dropped      int64   `json:"dropped,omitempty"`
	Windows      int64   `json:"windows"`
	FreshnessP50 float64 `json:"freshness_p50_s"`
	FreshnessP95 float64 `json:"freshness_p95_s"`
	FreshnessMax float64 `json:"freshness_max_s"`
	// Spill is the budgeted subscription's out-of-core report.
	Spill *SpillStats `json:"spill,omitempty"`
}

// FromStream converts a subscription report (nil in, nil out).
func FromStream(s *stream.Stats) *StreamStats {
	if s == nil {
		return nil
	}
	return &StreamStats{
		Events:       s.Events,
		Filtered:     s.Filtered,
		Late:         s.Late,
		Dropped:      s.Dropped,
		Windows:      s.Windows,
		FreshnessP50: s.FreshnessP50,
		FreshnessP95: s.FreshnessP95,
		FreshnessMax: s.FreshnessMax,
		Spill:        FromSpill(s.Spill),
	}
}

// NetStats mirrors dist.QueryStats.
type NetStats struct {
	Shards         int     `json:"shards"`
	Topology       string  `json:"topology"`
	Flows          int     `json:"flows"`
	BytesShuffled  float64 `json:"bytes_shuffled"`
	NetSeconds     float64 `json:"net_seconds"`
	ComputeSeconds float64 `json:"compute_seconds,omitempty"`
	OverlapSeconds float64 `json:"overlap_seconds,omitempty"`
	WallSeconds    float64 `json:"wall_seconds"`
	SpillSeconds   float64 `json:"spill_seconds,omitempty"`
	MeanLinkUtil   float64 `json:"mean_link_util"`
	MaxLinkUtil    float64 `json:"max_link_util"`
	// Recovery fields are nonzero only when the elastic lifecycle layer
	// had to repair the query: modeled seconds spent re-shipping and
	// re-deriving lost data, fragments re-dispatched off a dead host, and
	// speculative duplicates that beat their straggling primaries.
	RecoverySeconds  float64     `json:"recovery_seconds,omitempty"`
	RetriedFragments int         `json:"retried_fragments,omitempty"`
	SpeculativeWins  int         `json:"speculative_wins,omitempty"`
	Phases           []PhaseStat `json:"phases,omitempty"`
}

// PhaseStat mirrors dist.PhaseStat.
type PhaseStat struct {
	Name           string  `json:"name"`
	Flows          int     `json:"flows"`
	Bytes          float64 `json:"bytes"`
	Seconds        float64 `json:"seconds"`
	Chunks         int     `json:"chunks,omitempty"`
	ComputeSeconds float64 `json:"compute_seconds,omitempty"`
	OverlapSeconds float64 `json:"overlap_seconds,omitempty"`
}

// PartyStats mirrors netsim.PartyStats — one query's admission view.
type PartyStats struct {
	RoundsJoined       int     `json:"rounds_joined"`
	BarrierWaitSeconds float64 `json:"barrier_wait_seconds"`
	Class              string  `json:"class,omitempty"`
	Weight             float64 `json:"weight"`
	SubRounds          int     `json:"sub_rounds,omitempty"`
}

// SpillStats mirrors relational.SpillStats.
type SpillStats struct {
	Tier         string  `json:"tier"`
	Partitions   int     `json:"partitions"`
	SpilledBytes int64   `json:"spilled_bytes"`
	WriteSeconds float64 `json:"write_seconds"`
	ReadSeconds  float64 `json:"read_seconds"`
	EnergyJ      float64 `json:"energy_j"`
	MaxDepth     int     `json:"max_depth"`
}

// DeviceStats mirrors exec.DeviceStats.
type DeviceStats struct {
	Device          string  `json:"device"`
	Style           string  `json:"style"`
	Morsels         int     `json:"morsels"`
	Rows            int64   `json:"rows"`
	Seconds         float64 `json:"seconds"`
	TransferSeconds float64 `json:"transfer_seconds"`
	LaunchSeconds   float64 `json:"launch_seconds"`
	SetupSeconds    float64 `json:"setup_seconds"`
	EnergyJ         float64 `json:"energy_j"`
	QueueWaits      int     `json:"queue_waits,omitempty"`
	QueueSeconds    float64 `json:"queue_seconds,omitempty"`
}

// AdmissionStats mirrors netsim.AdmissionStats — the fabric-wide
// aggregate across every round.
type AdmissionStats struct {
	Rounds            int                `json:"rounds"`
	EagerRounds       int                `json:"eager_rounds,omitempty"`
	PeakFlows         int                `json:"peak_flows"`
	PeakParties       int                `json:"peak_parties"`
	BusySeconds       float64            `json:"busy_seconds"`
	Bytes             float64            `json:"bytes"`
	ClassBytes        map[string]float64 `json:"class_bytes,omitempty"`
	PathOverrides     int                `json:"path_overrides,omitempty"`
	RejectedOverrides int                `json:"rejected_overrides,omitempty"`
}

// FabricMetrics is the operational fabric view a daemon's /metrics
// endpoint reports: the FabricStats summary plus the raw admission
// aggregate.
type FabricMetrics struct {
	Topology     string          `json:"topology"`
	MeanLinkUtil float64         `json:"mean_link_util"`
	MaxLinkUtil  float64         `json:"max_link_util"`
	Admission    *AdmissionStats `json:"admission"`
}

// ClusterHealth mirrors lifecycle.Health — the elastic-cluster view the
// /metrics endpoint of every distributed daemon reports.
type ClusterHealth struct {
	Generation  int `json:"generation"`
	Replication int `json:"replication"`
	// The membership counts are always present — a zero is a fact about
	// the cluster, not an omission.
	Workers          int     `json:"workers"`
	Live             int     `json:"live"`
	Drained          int     `json:"drained"`
	Dead             int     `json:"dead"`
	Spares           int     `json:"spares"`
	RebalancedBytes  float64 `json:"rebalanced_bytes,omitempty"`
	RebalanceSeconds float64 `json:"rebalance_seconds,omitempty"`
	RepairBytes      float64 `json:"repair_bytes,omitempty"`
	RepairSeconds    float64 `json:"repair_seconds,omitempty"`
	Repairs          int     `json:"repairs,omitempty"`
	EventsFired      int     `json:"events_fired"`
	EventsTotal      int     `json:"events_total"`
}

// FromHealth converts an elastic-cluster snapshot to its wire form.
func FromHealth(h lifecycle.Health) *ClusterHealth {
	return &ClusterHealth{
		Generation:       h.Generation,
		Replication:      h.Replication,
		Workers:          h.Workers,
		Live:             h.Live,
		Drained:          h.Drained,
		Dead:             h.Dead,
		Spares:           h.Spares,
		RebalancedBytes:  h.RebalancedBytes,
		RebalanceSeconds: h.RebalanceSeconds,
		RepairBytes:      h.RepairBytes,
		RepairSeconds:    h.RepairSeconds,
		Repairs:          h.Repairs,
		EventsFired:      h.EventsFired,
		EventsTotal:      h.EventsTotal,
	}
}

// Cell converts one relational value to its JSON scalar.
func Cell(v relational.Value) any {
	switch v.T {
	case relational.Int:
		return v.I
	case relational.Float:
		return v.F
	default:
		return v.S
	}
}

// Rows converts a relation to wire cells in schema order, straight from
// its column vectors: one typed loop per column, every row a window of one
// backing array. A column-built relation (every batch and distributed
// result) is never boxed into relational rows on the way out.
func Rows(rel *relational.Relation) [][]any {
	n, w := rel.Len(), len(rel.Schema)
	flat := make([]any, n*w)
	for c, col := range rel.Columnar() {
		switch col.T {
		case relational.Int:
			for r, v := range col.Ints[:n] {
				flat[r*w+c] = v
			}
		case relational.Float:
			for r, v := range col.Floats[:n] {
				flat[r*w+c] = v
			}
		default:
			for r := range n {
				flat[r*w+c] = col.Str(r)
			}
		}
	}
	out := make([][]any, n)
	for r := range out {
		out[r] = flat[r*w : (r+1)*w : (r+1)*w]
	}
	return out
}

// Fingerprint renders the wire rows as one deterministic string —
// the row-for-row identity check the load harness and parity tests use
// to compare server results against direct library execution. Float
// cells render with strconv-exact precision via %v on the float64.
func Fingerprint(r *Result) string {
	var b strings.Builder
	for _, c := range r.Columns {
		b.WriteString(c.Name + ":" + c.Type + ";")
	}
	b.WriteByte('\n')
	for _, row := range r.Rows {
		for _, cell := range row {
			fmt.Fprintf(&b, "%v|", cell)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// FromResult converts a library result to its wire form.
func FromResult(res *sql.Result) *Result {
	out := &Result{
		Rows:      Rows(res.Rows),
		RowCount:  res.Rows.Len(),
		Steps:     res.Steps,
		Net:       FromQueryStats(res.Net),
		Admission: FromParty(res.Admission),
		Devices:   FromDevices(res.Devices),
		Placement: res.Placement,
		Spill:     FromSpill(res.Spill),
		Stream:    FromStream(res.Stream),
	}
	out.Columns = Columns(res.Rows.Schema)
	return out
}

// Columns converts a relational schema to its wire form.
func Columns(schema relational.Schema) []Column {
	out := make([]Column, len(schema))
	for i, c := range schema {
		out[i] = Column{Name: c.Name, Type: c.Type.String()}
	}
	return out
}

// FromQueryStats converts the distributed network report (nil in, nil
// out).
func FromQueryStats(s *dist.QueryStats) *NetStats {
	if s == nil {
		return nil
	}
	out := &NetStats{
		Shards:         s.Shards,
		Topology:       s.Topology,
		Flows:          s.Flows,
		BytesShuffled:  s.BytesShuffled,
		NetSeconds:     s.NetSeconds,
		ComputeSeconds: s.ComputeSeconds,
		OverlapSeconds: s.OverlapSeconds,
		WallSeconds:    s.WallSeconds(),
		SpillSeconds:   s.SpillSeconds,
		MeanLinkUtil:   s.MeanLinkUtil,
		MaxLinkUtil:    s.MaxLinkUtil,

		RecoverySeconds:  s.RecoverySeconds,
		RetriedFragments: s.RetriedFragments,
		SpeculativeWins:  s.SpeculativeWins,
	}
	for _, p := range s.Phases {
		out.Phases = append(out.Phases, PhaseStat{
			Name: p.Name, Flows: p.Flows, Bytes: p.Bytes, Seconds: p.Seconds,
			Chunks: p.Chunks, ComputeSeconds: p.ComputeSeconds, OverlapSeconds: p.OverlapSeconds,
		})
	}
	return out
}

// FromParty converts a query's admission report (nil in, nil out).
func FromParty(s *netsim.PartyStats) *PartyStats {
	if s == nil {
		return nil
	}
	return &PartyStats{
		RoundsJoined:       s.RoundsJoined,
		BarrierWaitSeconds: s.BarrierWaitSeconds,
		Class:              s.Class,
		Weight:             s.Weight,
		SubRounds:          s.SubRounds,
	}
}

// FromSpill converts an out-of-core report (nil in, nil out).
func FromSpill(s *relational.SpillStats) *SpillStats {
	if s == nil {
		return nil
	}
	return &SpillStats{
		Tier:         s.Tier,
		Partitions:   s.Partitions,
		SpilledBytes: s.SpilledBytes,
		WriteSeconds: s.WriteSeconds,
		ReadSeconds:  s.ReadSeconds,
		EnergyJ:      s.EnergyJ,
		MaxDepth:     s.MaxDepth,
	}
}

// FromDevices converts a heterogeneous-placement report.
func FromDevices(ds []exec.DeviceStats) []DeviceStats {
	if len(ds) == 0 {
		return nil
	}
	out := make([]DeviceStats, len(ds))
	for i, d := range ds {
		out[i] = DeviceStats{
			Device: d.Device, Style: d.Style, Morsels: d.Morsels, Rows: d.Rows,
			Seconds: d.Seconds, TransferSeconds: d.TransferSeconds,
			LaunchSeconds: d.LaunchSeconds, SetupSeconds: d.SetupSeconds,
			EnergyJ: d.EnergyJ, QueueWaits: d.QueueWaits, QueueSeconds: d.QueueSeconds,
		}
	}
	return out
}

// FromAdmission converts the fabric-wide admission aggregate.
func FromAdmission(a netsim.AdmissionStats) *AdmissionStats {
	return &AdmissionStats{
		Rounds:            a.Rounds,
		EagerRounds:       a.EagerRounds,
		PeakFlows:         a.PeakFlows,
		PeakParties:       a.PeakParties,
		BusySeconds:       a.BusySeconds,
		Bytes:             a.Bytes,
		ClassBytes:        a.ClassBytes,
		PathOverrides:     a.PathOverrides,
		RejectedOverrides: a.RejectedOverrides,
	}
}

// FromFabric converts the operational fabric view: the summary stats
// plus the raw admission aggregate.
func FromFabric(fs *dist.FabricStats, adm netsim.AdmissionStats) *FabricMetrics {
	if fs == nil {
		return nil
	}
	return &FabricMetrics{
		Topology:     fs.Topology,
		MeanLinkUtil: fs.MeanLinkUtil,
		MaxLinkUtil:  fs.MaxLinkUtil,
		Admission:    FromAdmission(adm),
	}
}

// ModelSeconds is the query's modeled service time: the simulated
// movement-plus-compute critical path of its distributed phases plus the
// modeled spill I/O. Zero for single-node runs (their cost is real CPU,
// not simulated). The load harness reports latency quantiles over this
// — it is where a 3:1 fabric weight actually shows up, since barrier
// wall-clock waits are shared by construction.
func (r *Result) ModelSeconds() float64 {
	if r.Net == nil {
		return 0
	}
	return r.Net.WallSeconds + r.Net.SpillSeconds
}
