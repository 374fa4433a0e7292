package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"repro/internal/netsim"
	"repro/internal/relational"
	"repro/internal/sdn"
	"repro/internal/serve/wire"
	"repro/internal/sql"
)

// olapConfig returns the engine configuration of an in-process
// workload. olap_dist takes every default of a distributed engine;
// olap_dist_allon takes every fork the other way.
func olapConfig(workload string) sql.Config {
	cfg := sql.DefaultConfig()
	if workload == wOlapLocal {
		return cfg
	}
	cfg.Distributed, cfg.Shards, cfg.Topology = true, 4, "leafspine"
	if workload == wOlapDistAllOn {
		cfg.PipelineChunkRows = 1024
		cfg.Replication = 2
		cfg.Devices = []string{"cpu", "gpu", "fpga"}
		cfg.Placement = "auto"
		cfg.Controller = sdn.NewNetController(nil, sdn.PolicyByName("reroute"), 4096)
	}
	return cfg
}

// olapSystem is one set-up in-process system under test.
type olapSystem struct {
	eng       *sql.Engine
	sales     *relational.Relation
	customers *relational.Relation
	stmts     []*sql.Stmt // one per class, prepared and warm
}

// setupOlap does what a library user does before the first statement:
// generate the tables, register them, prepare each class and execute
// it twice (which builds the columnar images and shard placements).
func setupOlap(workload string, seed uint64, sc scale) (*olapSystem, error) {
	eng, err := sql.NewEngine(olapConfig(workload))
	if err != nil {
		return nil, err
	}
	sys := &olapSystem{
		eng:       eng,
		sales:     sql.SalesRelation(seed, sc.OlapRows, sc.Customers),
		customers: sql.CustomersRelation(seed+1, sc.Customers),
	}
	eng.Register(sys.sales)
	eng.Register(sys.customers)
	sess := eng.Session()
	if workload == wOlapDistAllOn {
		sess.MemoryBudget = int64(0.02 * sys.sales.EncodedBytes())
		sess.SpillTier = "ssd"
	}
	for _, c := range classes {
		st, err := sess.Prepare(c.SQL)
		if err != nil {
			return nil, fmt.Errorf("prepare %s: %w", c.Name, err)
		}
		for i := 0; i < 2; i++ {
			if _, err := st.Exec(context.Background()); err != nil {
				return nil, fmt.Errorf("warm %s: %w", c.Name, err)
			}
		}
		sys.stmts = append(sys.stmts, st)
	}
	return sys, nil
}

// exactBlocks is how many leading blocks of a run feed the modeled-clock
// and work-count metrics. A run is as long as its deadline allows, so
// its operation count varies; these metrics are sums over the same
// operations in the same order whatever the deadline, which is what
// lets them repeat bit for bit for one seed. Every run executes at
// least this many blocks.
const exactBlocks = 4

// modelTotals sums the modeled-clock and work counts of results. One
// closed-loop client makes every one of them repeat exactly for a seed.
type modelTotals struct {
	ops                           int
	modelSec, netBytes            float64
	phases, flows, chunks, rounds int
	computeSec, overlapSec        float64
	spillParts                    int
	spillBytes                    int64
	spillSec, deviceSec           float64
}

func (m *modelTotals) add(res *sql.Result) {
	m.ops++
	if n := res.Net; n != nil {
		m.modelSec += n.WallSeconds()
		m.netBytes += n.BytesShuffled
		m.phases += len(n.Phases)
		m.flows += n.Flows
		for _, p := range n.Phases {
			m.chunks += p.Chunks
		}
		m.computeSec += n.ComputeSeconds
		m.overlapSec += n.OverlapSeconds
		m.rounds += n.Adm.RoundsJoined
	}
	if s := res.Spill; s != nil {
		m.spillSec += s.WriteSeconds + s.ReadSeconds
		m.spillParts += s.Partitions
		m.spillBytes += s.SpilledBytes
	}
	for _, d := range res.Devices {
		m.deviceSec += d.Seconds
	}
}

// runOlap runs one in-process workload: one closed-loop client driving
// prepared statements through Stmt.Exec.
func runOlap(rc runCfg) (*runResult, error) {
	out := newResult(rc)
	var sys *olapSystem
	var setups []float64
	for i := 0; i < rc.Scale.SetupRepeats; i++ {
		sys = nil
		runtime.GC()
		start := time.Now()
		var err error
		if sys, err = setupOlap(rc.Workload, rc.Seed, rc.Scale); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	ref, err := buildReference(rc.corruptRef, sys.sales, sys.customers)
	if err != nil {
		return nil, err
	}

	rec := newRecorder()
	first := make([]*sql.Result, len(classes))
	last := make([]*sql.Result, len(classes))
	var totals modelTotals
	rng := rand.New(rand.NewSource(int64(rc.Seed)))
	ctx := context.Background()
	var adm0 netsim.AdmissionStats
	if fab := sys.eng.Fabric(); fab != nil {
		adm0 = fab.Admission()
	}
	runtime.GC()
	alloc0 := heapAllocBytes()
	start := time.Now()
	op := 0
	for b := 0; b < exactBlocks || time.Since(start).Seconds() < rc.Seconds; b++ {
		for _, ci := range balancedBlock(rng, len(classes), 2) {
			name := classes[ci].Name
			sp := rc.tr.begin("op."+name, op, -1)
			t0 := time.Now()
			res, err := sys.stmts[ci].Exec(ctx)
			lat := ms(time.Since(t0))
			rc.tr.end(sp)
			op++
			switch {
			case err != nil:
				rec.fail("%s: %v", name, err)
			case res.Rows.Len() != len(ref[name]):
				rec.fail("%s: %d rows, reference %d", name, res.Rows.Len(), len(ref[name]))
			default:
				rec.ok(name, lat)
				if b < exactBlocks {
					totals.add(res)
				}
				if first[ci] == nil {
					first[ci] = res
				}
				last[ci] = res
			}
		}
	}
	wall := time.Since(start).Seconds()
	allocMB := float64(heapAllocBytes()-alloc0) / (1 << 20)

	// Full row-for-row check of the first and last result of each class,
	// outside the timed section.
	for ci, c := range classes {
		for _, res := range []*sql.Result{first[ci], last[ci]} {
			if res == nil {
				continue
			}
			if err := sameRows(ref[c.Name], wire.Rows(res.Rows)); err != nil {
				rec.mismatch("%s: %v", c.Name, err)
			}
		}
	}

	ops := float64(rec.attempted - rec.failed)
	out.finish(rec, classNames())
	out.set("setup_s", median(setups))
	out.set("throughput_ops_s", ops/wall)
	out.set("latency_p90_ms", quantile(rec.all(), 0.90))
	out.set("peak_rss_mb", peakRSSMB(os.Getpid()))
	out.set("alloc_mb_per_op", allocMB/ops)
	if n := float64(totals.ops); n > 0 {
		out.set("dist.model_ms_per_op", totals.modelSec*1e3/n)
		out.set("dist.net_bytes_per_op", totals.netBytes/n)
		out.set("dist.phases_per_op", float64(totals.phases)/n)
		out.set("dist.flows_per_op", float64(totals.flows)/n)
		out.set("dist.chunks_per_op", float64(totals.chunks)/n)
		out.set("netsim.rounds_per_op", float64(totals.rounds)/n)
		out.set("relational.spill_partitions_per_op", float64(totals.spillParts)/n)
		out.set("relational.spill_mb_per_op", float64(totals.spillBytes)/(1<<20)/n)
		out.set("relational.spill_model_ms_per_op", totals.spillSec*1e3/n)
		out.set("exec.device_model_ms_per_op", totals.deviceSec*1e3/n)
	}
	if totals.computeSec > 0 {
		out.set("dist.overlap_share", totals.overlapSec/totals.computeSec)
	}
	if fab := sys.eng.Fabric(); fab != nil {
		adm := fab.Admission()
		out.set("netsim.peak_parties", float64(adm.PeakParties))
		out.set("netsim.max_link_util", fab.Stats().MaxLinkUtil)
		out.set("sdn.path_overrides_per_op", float64(adm.PathOverrides-adm0.PathOverrides)/ops)
	}
	out.wallS = wall
	return out, nil
}
