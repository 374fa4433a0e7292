package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/serve/wire"
	"repro/internal/sql"
)

// LoadTenant is one tenant the load harness drives: its credentials
// plus the share of sessions it receives (shares are relative; 0 reads
// as 1).
type LoadTenant struct {
	Name   string `json:"name"`
	APIKey string `json:"api_key"`
	Share  int    `json:"share,omitempty"`
}

// LoadConfig drives one load run against a serving front door.
type LoadConfig struct {
	// BaseURL targets a running daemon ("http://host:port"). Leave empty
	// and set Handler to drive an in-process server without sockets.
	BaseURL string
	// Handler, when set, is driven directly through an in-memory
	// round-tripper — the "in-process engine" mode of the harness, which
	// exercises the full HTTP surface without consuming file
	// descriptors (thousands of concurrent sessions on one box).
	Handler http.Handler
	// Client overrides the HTTP client (BaseURL mode only); the default
	// pools enough connections for Sessions concurrent requests.
	Client *http.Client
	// Tenants is the tenant mix; sessions are dealt to tenants by Share.
	Tenants []LoadTenant
	// Queries is the statement mix; session i starts at query i%len and
	// round-robins. Empty uses DefaultLoadQueries.
	Queries []string
	// Sessions is the number of concurrent sessions (goroutines), each
	// holding exactly one query in flight at a time.
	Sessions int
	// QueriesPerSession is how many statements each session submits
	// sequentially (default 1).
	QueriesPerSession int
	// Prepare routes every statement through the server's plan cache.
	Prepare bool
	// Gang announces the first wave on the fabric's admission barrier,
	// so all Sessions first-queries genuinely coexist in one round
	// (deterministic contention, like rethink-sql's Expect). Requires a
	// distributed engine behind the target to have any effect.
	Gang bool
}

// DefaultLoadQueries is the statement mix used when LoadConfig.Queries
// is empty: a shuffle-heavy join and two aggregations over the demo
// star schema.
var DefaultLoadQueries = []string{
	"SELECT region, COUNT(*) AS orders, SUM(price) AS revenue FROM sales GROUP BY region ORDER BY revenue DESC",
	"SELECT c.segment, SUM(s.price * (1 - s.discount)) AS net FROM sales s JOIN customers c ON s.customer_id = c.customer_id GROUP BY c.segment ORDER BY net DESC",
	"SELECT product, MAX(price) AS top_price FROM sales WHERE year >= 2014 GROUP BY product ORDER BY top_price DESC LIMIT 5",
}

// Quantiles summarizes one latency distribution in milliseconds.
type Quantiles struct {
	P50  float64 `json:"p50_ms"`
	P95  float64 `json:"p95_ms"`
	P99  float64 `json:"p99_ms"`
	Mean float64 `json:"mean_ms"`
	Max  float64 `json:"max_ms"`
}

// quantiles computes the summary over ms samples (empty → zeros).
func quantiles(ms []float64) Quantiles {
	if len(ms) == 0 {
		return Quantiles{}
	}
	sorted := append([]float64(nil), ms...)
	sort.Float64s(sorted)
	pick := func(q float64) float64 {
		i := int(q * float64(len(sorted)-1))
		return sorted[i]
	}
	sum := 0.0
	for _, v := range sorted {
		sum += v
	}
	return Quantiles{
		P50:  pick(0.50),
		P95:  pick(0.95),
		P99:  pick(0.99),
		Mean: sum / float64(len(sorted)),
		Max:  sorted[len(sorted)-1],
	}
}

// TenantReport is one tenant's slice of a load run.
type TenantReport struct {
	Sessions  int `json:"sessions"`
	Queries   int `json:"queries"`
	Errors    int `json:"errors"`
	CacheHits int `json:"cache_hits"`
	// Wall is the client-observed request latency; Model is the modeled
	// service time (simulated fabric wall + spill I/O) the server
	// reported per query. Fabric weights show up in Model: barrier
	// wall-clock is shared by construction, simulated bandwidth is not.
	Wall  Quantiles `json:"wall"`
	Model Quantiles `json:"model"`
	// Net/spill/overlap breakdowns summed over the tenant's queries.
	NetBytes       float64 `json:"net_bytes"`
	NetSeconds     float64 `json:"net_seconds"`
	ComputeSeconds float64 `json:"compute_seconds"`
	OverlapSeconds float64 `json:"overlap_seconds"`
	SpillSeconds   float64 `json:"spill_seconds"`
	RowsReturned   uint64  `json:"rows_returned"`
}

// Report is the machine-readable artifact of one load run.
type Report struct {
	Target            string                   `json:"target"`
	Sessions          int                      `json:"sessions"`
	QueriesPerSession int                      `json:"queries_per_session"`
	Prepare           bool                     `json:"prepare"`
	Gang              bool                     `json:"gang"`
	TotalQueries      int                      `json:"total_queries"`
	TotalErrors       int                      `json:"total_errors"`
	WallSeconds       float64                  `json:"wall_seconds"`
	Throughput        float64                  `json:"throughput_qps"`
	Tenants           map[string]*TenantReport `json:"tenants"`
	// Fingerprints maps each distinct statement to the row fingerprint
	// every session observed for it. A load run fails if two sessions
	// see different rows for the same statement — results must not
	// depend on who asked or how contended the fabric was.
	Fingerprints map[string]string `json:"fingerprints"`
	// Metrics is the server's /metrics snapshot taken after the run
	// (plan-cache hit/miss counters, per-class fabric bytes, …).
	Metrics *Metrics `json:"metrics,omitempty"`
}

// handlerTransport drives an http.Handler in-process: the full wire
// surface without sockets.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if err := r.Context().Err(); err != nil {
		return nil, err
	}
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, r)
	return rec.Result(), nil
}

// client builds the harness's HTTP client for the configured target.
func (c *LoadConfig) client() (*http.Client, string, error) {
	if c.Handler != nil {
		return &http.Client{Transport: handlerTransport{c.Handler}}, "http://in-process", nil
	}
	if c.BaseURL == "" {
		return nil, "", fmt.Errorf("serve: load config needs a BaseURL or a Handler")
	}
	cl := c.Client
	if cl == nil {
		tr := &http.Transport{
			MaxIdleConns:        c.Sessions + 16,
			MaxIdleConnsPerHost: c.Sessions + 16,
		}
		cl = &http.Client{Transport: tr}
	}
	return cl, strings.TrimRight(c.BaseURL, "/"), nil
}

// sample is one completed request.
type sample struct {
	tenant   string
	query    string
	wallMS   float64
	modelMS  float64
	cacheHit bool
	resp     *QueryResponse
	err      error
}

// RunLoad executes the configured load and aggregates the report.
// Sessions run as goroutines, each submitting its statements
// sequentially over the shared client; errors are counted per tenant
// and the first row-fingerprint divergence is returned as an error.
func RunLoad(ctx context.Context, cfg LoadConfig) (*Report, error) {
	if cfg.Sessions <= 0 {
		return nil, fmt.Errorf("serve: load config needs Sessions > 0")
	}
	if len(cfg.Tenants) == 0 {
		return nil, fmt.Errorf("serve: load config needs at least one tenant")
	}
	queries := cfg.Queries
	if len(queries) == 0 {
		queries = DefaultLoadQueries
	}
	perSession := cfg.QueriesPerSession
	if perSession <= 0 {
		perSession = 1
	}
	client, base, err := cfg.client()
	if err != nil {
		return nil, err
	}
	// Deal sessions to tenants proportionally to Share: session i goes
	// to the tenant whose cumulative share bucket contains i.
	owners := make([]*LoadTenant, cfg.Sessions)
	totalShare := 0
	for i := range cfg.Tenants {
		if cfg.Tenants[i].Share <= 0 {
			cfg.Tenants[i].Share = 1
		}
		totalShare += cfg.Tenants[i].Share
	}
	for i := range owners {
		cum, point := 0, i*totalShare
		for ti := range cfg.Tenants {
			cum += cfg.Tenants[ti].Share * cfg.Sessions
			if point < cum {
				owners[i] = &cfg.Tenants[ti]
				break
			}
		}
		if owners[i] == nil {
			owners[i] = &cfg.Tenants[len(cfg.Tenants)-1]
		}
	}
	if cfg.Gang {
		if err := postJSON(ctx, client, base+"/v1/gang", cfg.Tenants[0].APIKey, GangRequest{Announce: cfg.Sessions}, nil); err != nil {
			return nil, fmt.Errorf("serve: gang announce: %w", err)
		}
	}
	samples := make([]sample, cfg.Sessions*perSession)
	var wg sync.WaitGroup
	started := time.Now()
	for i := 0; i < cfg.Sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tenant := owners[i]
			for j := 0; j < perSession; j++ {
				q := queries[(i+j)%len(queries)]
				s := runQuery(ctx, client, base, tenant, q, cfg.Prepare)
				if s.err != nil && cfg.Gang && j == 0 {
					// This session's first-wave slot will never be filled;
					// release it so the rest of the wave's barrier resolves.
					_ = postJSON(ctx, client, base+"/v1/gang", tenant.APIKey, GangRequest{Withdraw: 1}, nil)
				}
				samples[i*perSession+j] = s
			}
		}(i)
	}
	wg.Wait()
	wall := time.Since(started).Seconds()

	report := &Report{
		Target:            base,
		Sessions:          cfg.Sessions,
		QueriesPerSession: perSession,
		Prepare:           cfg.Prepare,
		Gang:              cfg.Gang,
		WallSeconds:       wall,
		Tenants:           map[string]*TenantReport{},
		Fingerprints:      map[string]string{},
	}
	sessionsPer := map[string]int{}
	for _, o := range owners {
		sessionsPer[o.Name]++
	}
	wallMS := map[string][]float64{}
	modelMS := map[string][]float64{}
	var fpErr error
	for _, s := range samples {
		tr := report.Tenants[s.tenant]
		if tr == nil {
			tr = &TenantReport{Sessions: sessionsPer[s.tenant]}
			report.Tenants[s.tenant] = tr
		}
		if s.err != nil {
			tr.Errors++
			report.TotalErrors++
			continue
		}
		report.TotalQueries++
		tr.Queries++
		if s.cacheHit {
			tr.CacheHits++
		}
		wallMS[s.tenant] = append(wallMS[s.tenant], s.wallMS)
		modelMS[s.tenant] = append(modelMS[s.tenant], s.modelMS)
		res := s.resp.Result
		tr.RowsReturned += uint64(res.RowCount)
		if res.Net != nil {
			tr.NetBytes += res.Net.BytesShuffled
			tr.NetSeconds += res.Net.NetSeconds
			tr.ComputeSeconds += res.Net.ComputeSeconds
			tr.OverlapSeconds += res.Net.OverlapSeconds
			tr.SpillSeconds += res.Net.SpillSeconds
		}
		fp := rowFingerprint(res)
		if prev, ok := report.Fingerprints[s.query]; !ok {
			report.Fingerprints[s.query] = fp
		} else if prev != fp && fpErr == nil {
			fpErr = fmt.Errorf("serve: row divergence for %q: sessions observed different results under load", s.query)
		}
	}
	for name, tr := range report.Tenants {
		tr.Wall = quantiles(wallMS[name])
		tr.Model = quantiles(modelMS[name])
	}
	if wall > 0 {
		report.Throughput = float64(report.TotalQueries) / wall
	}
	if m, err := fetchMetrics(ctx, client, base); err == nil {
		report.Metrics = m
	}
	return report, fpErr
}

// rowFingerprint hashes a result's schema and rows.
func rowFingerprint(r *wire.Result) string {
	h := fnv.New64a()
	io.WriteString(h, wire.Fingerprint(r))
	return fmt.Sprintf("%016x", h.Sum64())
}

// runQuery submits one statement and parses the response.
func runQuery(ctx context.Context, client *http.Client, base string, tenant *LoadTenant, q string, prepare bool) sample {
	s := sample{tenant: tenant.Name, query: q}
	body, _ := json.Marshal(QueryRequest{SQL: q, Prepare: prepare})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/sql", bytes.NewReader(body))
	if err != nil {
		s.err = err
		return s
	}
	req.Header.Set("Authorization", "Bearer "+tenant.APIKey)
	req.Header.Set("Content-Type", "application/json")
	started := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		s.err = err
		return s
	}
	defer resp.Body.Close()
	s.wallMS = time.Since(started).Seconds() * 1e3
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		s.err = fmt.Errorf("serve: %s: %s", resp.Status, strings.TrimSpace(string(data)))
		return s
	}
	var qr QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		s.err = err
		return s
	}
	s.resp = &qr
	s.modelMS = qr.ModelMS
	s.cacheHit = qr.CacheHit
	return s
}

// fetchMetrics pulls the server's /metrics snapshot.
func fetchMetrics(ctx context.Context, client *http.Client, base string) (*Metrics, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var m Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, err
	}
	return &m, nil
}

// VerifyAgainstEngine replays every distinct statement of a report on a
// reference engine directly through the library API and compares row
// fingerprints — the served rows must be row-for-row identical to
// direct execution. The reference engine must hold the same catalog the
// daemon served.
func VerifyAgainstEngine(report *Report, eng *sql.Engine) error {
	sess := eng.Session()
	for q, fp := range report.Fingerprints {
		res, err := sess.Query(context.Background(), q)
		if err != nil {
			return fmt.Errorf("serve: verify %q: %w", q, err)
		}
		if ref := rowFingerprint(wire.FromResult(res)); ref != fp {
			return fmt.Errorf("serve: verify %q: served rows differ from direct library execution (%s != %s)", q, fp, ref)
		}
	}
	return nil
}

// Summary renders the report as a human-readable block.
func (r *Report) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "load: %d sessions x %d queries against %s — %d ok, %d errors in %.2fs (%.0f q/s)\n",
		r.Sessions, r.QueriesPerSession, r.Target, r.TotalQueries, r.TotalErrors, r.WallSeconds, r.Throughput)
	names := make([]string, 0, len(r.Tenants))
	for n := range r.Tenants {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		t := r.Tenants[n]
		fmt.Fprintf(&b, "  %-8s %4d sessions %6d q (%d err, %d cache hits)\n", n, t.Sessions, t.Queries, t.Errors, t.CacheHits)
		fmt.Fprintf(&b, "           wall  p50 %8.2f ms  p95 %8.2f ms  p99 %8.2f ms\n", t.Wall.P50, t.Wall.P95, t.Wall.P99)
		fmt.Fprintf(&b, "           model p50 %8.2f ms  p95 %8.2f ms  p99 %8.2f ms\n", t.Model.P50, t.Model.P95, t.Model.P99)
		fmt.Fprintf(&b, "           net %.0f B in %.3fs, compute %.3fs (%.3fs overlapped), spill %.3fs\n",
			t.NetBytes, t.NetSeconds, t.ComputeSeconds, t.OverlapSeconds, t.SpillSeconds)
	}
	if r.Metrics != nil {
		pc := r.Metrics.PlanCache
		fmt.Fprintf(&b, "  plan cache: %d/%d entries, %d hits, %d misses, %d invalidations\n",
			pc.Entries, pc.Capacity, pc.Hits, pc.Misses, pc.Invalidations)
		if r.Metrics.Fabric != nil && r.Metrics.Fabric.Admission != nil {
			a := r.Metrics.Fabric.Admission
			fmt.Fprintf(&b, "  fabric: %d rounds, peak %d queries / %d flows, %.0f bytes",
				a.Rounds, a.PeakParties, a.PeakFlows, a.Bytes)
			if len(a.ClassBytes) > 0 {
				classes := make([]string, 0, len(a.ClassBytes))
				for c := range a.ClassBytes {
					classes = append(classes, c)
				}
				sort.Strings(classes)
				b.WriteString("; per-class:")
				for _, c := range classes {
					name := c
					if name == "" {
						name = "best-effort"
					}
					fmt.Fprintf(&b, " %s=%.0f", name, a.ClassBytes[c])
				}
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}
