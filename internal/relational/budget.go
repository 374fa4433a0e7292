package relational

import (
	"fmt"
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
	// Price is the modeled seconds and joules of accesses transfers that
	// move bytes in all, in either direction.
	Price(accesses, bytes int64) (seconds, joules float64)
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
	// spill writes and the later read-back passes, each priced once from
	// its counted accesses and bytes.
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

// String renders the stats on one line, mirroring DeviceStats.
func (s SpillStats) String() string {
	return fmt.Sprintf("spill[%s]: %d partitions, %.1f MB, write %.3f ms, read %.3f ms, %.3f mJ, depth %d",
		s.Tier, s.Partitions, float64(s.SpilledBytes)/(1<<20),
		s.WriteSeconds*1e3, s.ReadSeconds*1e3, s.EnergyJ*1e3, s.MaxDepth)
}

// spillCount counts spill traffic without pricing it: integers, updated
// atomically, so concurrent charges add up to the same totals in any
// order. The price is taken once, from the totals, when they are read.
type spillCount struct {
	partitions, depth  atomic.Int64
	writes, writeBytes atomic.Int64
	reads, readBytes   atomic.Int64
}

func (c *spillCount) charge(writes, writeBytes, reads, readBytes int64) {
	c.writes.Add(writes)
	c.writeBytes.Add(writeBytes)
	c.reads.Add(reads)
	c.readBytes.Add(readBytes)
}

func (c *spillCount) evict(depth, bytes int64) {
	c.partitions.Add(1)
	c.charge(1, bytes, 0, 0)
	for d := c.depth.Load(); d < depth; d = c.depth.Load() {
		if c.depth.CompareAndSwap(d, depth) {
			return
		}
	}
}

// priced prices the totals on dev: the writes and the reads each as one
// price of their accesses and bytes, and the energy of both.
func (c *spillCount) priced(dev SpillDevice) SpillStats {
	st := SpillStats{
		Tier: dev.Tier(), Partitions: int(c.partitions.Load()),
		SpilledBytes: c.writeBytes.Load(), MaxDepth: int(c.depth.Load()),
	}
	var wj, rj float64
	st.WriteSeconds, wj = dev.Price(c.writes.Load(), st.SpilledBytes)
	st.ReadSeconds, rj = dev.Price(c.reads.Load(), c.readBytes.Load())
	st.EnergyJ = wj + rj
	return st
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
	agg   *spillCount // the query's spill, shared with every Fork
}

// NewMemoryBudget builds a budget of limit bytes spilling to dev.
func NewMemoryBudget(limit int64, dev SpillDevice) *MemoryBudget {
	return &MemoryBudget{limit: limit, dev: dev, agg: &spillCount{}}
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

// Stats prices the query-wide spill totals.
func (b *MemoryBudget) Stats() SpillStats {
	if b == nil {
		return SpillStats{}
	}
	return b.agg.priced(b.dev)
}

// String describes the budget for plan steps.
func (b *MemoryBudget) String() string {
	if b == nil {
		return "unbudgeted"
	}
	return fmt.Sprintf("budget %d bytes, tier %s", b.limit, b.dev.Tier())
}

// spillMeter is one operator's view of the spill device: it counts this
// operator's traffic (for OpStats.Spill) and forwards every charge to the
// budget's query-wide count. All methods are nil-safe so unbudgeted
// operators pay nothing, not even a branch in their stats.
type spillMeter struct {
	b *MemoryBudget
	n spillCount
}

func newSpillMeter(b *MemoryBudget) *spillMeter {
	if b == nil {
		return nil
	}
	return &spillMeter{b: b}
}

// charge counts writes accesses moving writeBytes out to the tier and
// reads accesses reading readBytes back.
func (m *spillMeter) charge(writes, writeBytes, reads, readBytes int64) {
	if m == nil {
		return
	}
	m.n.charge(writes, writeBytes, reads, readBytes)
	m.b.agg.charge(writes, writeBytes, reads, readBytes)
}

// evict counts one state partition evicted at the given recursion depth
// (1 = the first pass): one access writing its bytes out.
func (m *spillMeter) evict(depth int, bytes int64) {
	if m == nil {
		return
	}
	m.n.evict(int64(depth), bytes)
	m.b.agg.evict(int64(depth), bytes)
}

// opSpill prices the operator's totals for OpStats.Spill, or is nil when
// nothing spilled (so unbudgeted stats stay bit-identical).
func (m *spillMeter) opSpill() *SpillStats {
	if m == nil {
		return nil
	}
	st := m.n.priced(m.b.dev)
	if !st.Active() {
		return nil
	}
	return &st
}
