package relational

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// SpillDevice prices transfers to the modeled storage tier operators
// spill to when a MemoryBudget runs out. The relational layer only needs
// pricing, not the tier model itself, so this interface decouples it
// from the memtier package the same way Controller decouples dist from
// netsim: the sql layer injects a memtier.SpillDevice at plan time.
type SpillDevice interface {
	// Tier names the tier being priced ("nvm", "ssd", "disk").
	Tier() string
	// WriteSeconds prices spilling bytes out to the tier.
	WriteSeconds(bytes float64) float64
	// ReadSeconds prices reading spilled bytes back.
	ReadSeconds(bytes float64) float64
	// AccessJoules prices the energy of moving bytes either direction.
	AccessJoules(bytes float64) float64
}

// SpillStats aggregates the modeled out-of-core activity of one operator
// or one query: how many partitions were pushed below the budget line,
// how many bytes crossed the tier boundary, and what the crossing cost.
type SpillStats struct {
	// Tier is the storage tier spill traffic was priced against.
	Tier string `json:"tier"`
	// Partitions counts state partitions (grace buckets, agg
	// generations, sort runs) evicted to the tier.
	Partitions int `json:"partitions"`
	// SpilledBytes is the total bytes written to the tier.
	SpilledBytes int64 `json:"spilled_bytes"`
	// WriteSeconds and ReadSeconds are the modeled transfer times of the
	// spill writes and the later read-back passes.
	WriteSeconds float64 `json:"write_seconds"`
	ReadSeconds  float64 `json:"read_seconds"`
	// EnergyJ is the modeled access energy of all spill traffic.
	EnergyJ float64 `json:"energy_j"`
	// MaxDepth is the deepest recursive re-partitioning level reached
	// (0 = no spill, 1 = one grace pass, …).
	MaxDepth int `json:"max_depth"`
}

// Active reports whether any spill happened.
func (s SpillStats) Active() bool { return s.Partitions > 0 || s.SpilledBytes > 0 }

// add folds o into s (tier names agree by construction — one device per
// query).
func (s *SpillStats) add(o SpillStats) {
	if o.Tier != "" {
		s.Tier = o.Tier
	}
	s.Partitions += o.Partitions
	s.SpilledBytes += o.SpilledBytes
	s.WriteSeconds += o.WriteSeconds
	s.ReadSeconds += o.ReadSeconds
	s.EnergyJ += o.EnergyJ
	if o.MaxDepth > s.MaxDepth {
		s.MaxDepth = o.MaxDepth
	}
}

// String renders the stats on one line, mirroring DeviceStats.
func (s SpillStats) String() string {
	return fmt.Sprintf("spill[%s]: %d partitions, %.1f MB, write %.3f ms, read %.3f ms, %.3f mJ, depth %d",
		s.Tier, s.Partitions, float64(s.SpilledBytes)/(1<<20),
		s.WriteSeconds*1e3, s.ReadSeconds*1e3, s.EnergyJ*1e3, s.MaxDepth)
}

// spillAgg is the query-wide accumulator every operator's meter forwards
// to; shared across Fork()ed budgets so distributed shards and parallel
// partitions all land in one Result.Spill.
type spillAgg struct {
	mu sync.Mutex
	st SpillStats
}

func (a *spillAgg) add(o SpillStats) {
	a.mu.Lock()
	a.st.add(o)
	a.mu.Unlock()
}

func (a *spillAgg) snapshot() SpillStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.st
}

// MemoryBudget is per-query arena accounting for operator state: build
// tables, partial-aggregate maps, and sort runs Reserve bytes before
// materializing them and spill when the reservation fails. Reserve and
// Release are safe for concurrent use, so morsel-parallel partitions
// race for one shared budget exactly like threads race for one DRAM
// arena. A nil *MemoryBudget means "unbudgeted": every operation is a
// no-op returning success, so unset budgets replay bit-identically.
type MemoryBudget struct {
	limit int64
	dev   SpillDevice
	used  atomic.Int64
	agg   *spillAgg
}

// NewMemoryBudget builds a budget of limit bytes spilling to dev.
func NewMemoryBudget(limit int64, dev SpillDevice) *MemoryBudget {
	return &MemoryBudget{limit: limit, dev: dev, agg: &spillAgg{st: SpillStats{Tier: dev.Tier()}}}
}

// Limit returns the budget size in bytes (0 for a nil budget).
func (b *MemoryBudget) Limit() int64 {
	if b == nil {
		return 0
	}
	return b.limit
}

// Reserve atomically charges bytes against the budget, failing without
// side effects when the charge would exceed the limit.
func (b *MemoryBudget) Reserve(bytes int64) bool {
	if b == nil || bytes <= 0 {
		return true
	}
	for {
		cur := b.used.Load()
		if cur+bytes > b.limit {
			return false
		}
		if b.used.CompareAndSwap(cur, cur+bytes) {
			return true
		}
	}
}

// Release returns bytes to the budget.
func (b *MemoryBudget) Release(bytes int64) {
	if b == nil || bytes <= 0 {
		return
	}
	b.used.Add(-bytes)
}

// Used returns the bytes currently reserved.
func (b *MemoryBudget) Used() int64 {
	if b == nil {
		return 0
	}
	return b.used.Load()
}

// Fork returns an independent budget of the same size pricing against
// the same tier, with spill stats still folding into the parent's
// aggregate — the distributed analogue of exec.Placer.Fork: each shard
// models its own host's memory, but the query reports one spill total.
func (b *MemoryBudget) Fork() *MemoryBudget {
	if b == nil {
		return nil
	}
	return &MemoryBudget{limit: b.limit, dev: b.dev, agg: b.agg}
}

// Stats snapshots the query-wide spill totals.
func (b *MemoryBudget) Stats() SpillStats {
	if b == nil {
		return SpillStats{}
	}
	return b.agg.snapshot()
}

// String describes the budget for plan steps.
func (b *MemoryBudget) String() string {
	if b == nil {
		return "unbudgeted"
	}
	return fmt.Sprintf("budget %d bytes, tier %s", b.limit, b.dev.Tier())
}

// spillMeter is one operator's view of the spill device: it prices and
// records this operator's traffic (for OpStats.Spill) and forwards every
// charge to the budget's query-wide aggregate. All methods are nil-safe
// so unbudgeted operators pay nothing, not even a branch in their stats.
type spillMeter struct {
	b  *MemoryBudget
	mu sync.Mutex
	st SpillStats
}

func newSpillMeter(b *MemoryBudget) *spillMeter {
	if b == nil {
		return nil
	}
	return &spillMeter{b: b, st: SpillStats{Tier: b.dev.Tier()}}
}

// chargeWrite prices writing bytes out to the tier.
func (m *spillMeter) chargeWrite(bytes int64) {
	if m == nil || bytes <= 0 {
		return
	}
	fb := float64(bytes)
	d := SpillStats{
		SpilledBytes: bytes,
		WriteSeconds: m.b.dev.WriteSeconds(fb),
		EnergyJ:      m.b.dev.AccessJoules(fb),
	}
	m.record(d)
}

// chargeRead prices reading spilled bytes back.
func (m *spillMeter) chargeRead(bytes int64) {
	if m == nil || bytes <= 0 {
		return
	}
	fb := float64(bytes)
	d := SpillStats{
		ReadSeconds: m.b.dev.ReadSeconds(fb),
		EnergyJ:     m.b.dev.AccessJoules(fb),
	}
	m.record(d)
}

// notePartition records one evicted partition at the given recursion
// depth (1 = first grace pass).
func (m *spillMeter) notePartition(depth int) {
	if m == nil {
		return
	}
	m.record(SpillStats{Partitions: 1, MaxDepth: depth})
}

func (m *spillMeter) record(d SpillStats) {
	m.mu.Lock()
	m.st.add(d)
	m.mu.Unlock()
	m.b.agg.add(d)
}

// opSpill returns the operator-local stats for OpStats.Spill, or nil
// when nothing spilled (so unbudgeted stats stay bit-identical).
func (m *spillMeter) opSpill() *SpillStats {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.st.Active() {
		return nil
	}
	st := m.st
	return &st
}
