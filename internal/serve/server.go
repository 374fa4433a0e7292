// Package serve is the multi-tenant serving front door over one shared
// sql.Engine: the wire surface of the rethinkd daemon. It authenticates
// tenants by API key, maps each tenant's QoS/budget configuration onto
// per-request engine sessions, caches prepared statements per (tenant,
// statement, session-config) with catalog-epoch invalidation, threads
// client disconnects onto the engine's cancellation path, rate-limits
// each tenant's submissions with a token bucket (429 + Retry-After),
// serves streaming ingest and held-open continuous-query subscriptions
// on /v1/stream, and drains
// gracefully — in-flight queries finish, new ones get 503, and any
// announced-but-unfilled fabric gang slots are withdrawn so the shared
// admission barrier can never deadlock on a query that will now never
// arrive. The package holds only the daemon: its request and response
// types are the wire contract, and the client that drives them under
// load is internal/loadgen.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dist"
	"repro/internal/lifecycle"
	"repro/internal/relational"
	"repro/internal/serve/wire"
	"repro/internal/sql"
)

// Server is the HTTP front door of one engine. Create with New, mount
// via Handler. All methods are safe for concurrent use.
type Server struct {
	eng     *sql.Engine
	tenants *Tenants
	cache   *PlanCache
	limiter *rateLimiter
	mux     *http.ServeMux
	start   time.Time
	// panics counts recovered handler panics; atomic, so recoverPanics
	// never waits on mu, which the panicking handler may have held.
	panics atomic.Uint64
	// beforeExecute, when set, runs on every decoded /v1/sql request just
	// before it executes: the hook tests make a request panic through.
	beforeExecute func(*Tenant, QueryRequest)

	mu            sync.Mutex
	draining      bool
	drained       chan struct{} // closed when the first Drain completes
	subsStop      chan struct{} // closed when a drain starts: ends held-open subscriptions
	drainOnce     sync.Once
	inflight      sync.WaitGroup
	inflightCount int
	gangRemaining int
	served        uint64
	tstats        map[string]*TenantCounters
	tinflight     map[string]int
}

// TenantCounters is one tenant's serving totals for /metrics.
type TenantCounters struct {
	// Queries and Errors count finished statements and subscriptions by
	// outcome; Rows counts the result rows written to the tenant.
	Queries   uint64 `json:"queries"`
	Errors    uint64 `json:"errors"`
	Rows      uint64 `json:"rows"`
	CacheHits uint64 `json:"cache_hits"`
	// Throttled counts submissions refused with 429 because the tenant
	// was at its max_inflight cap.
	Throttled uint64 `json:"throttled,omitempty"`
	// RateLimited counts submissions refused with 429 because the
	// tenant's rate_per_sec token bucket was empty.
	RateLimited uint64 `json:"rate_limited,omitempty"`
}

// DefaultCacheCap bounds the plan cache when Options.CacheCap is 0.
const DefaultCacheCap = 1024

// Options tunes the server.
type Options struct {
	// CacheCap bounds the prepared-statement cache (default 1024).
	CacheCap int
}

// New fronts eng with the given tenant set.
func New(eng *sql.Engine, tenants *Tenants, opt Options) *Server {
	cap := opt.CacheCap
	if cap <= 0 {
		cap = DefaultCacheCap
	}
	s := &Server{
		eng:       eng,
		tenants:   tenants,
		cache:     NewPlanCache(cap),
		limiter:   newRateLimiter(nil),
		mux:       http.NewServeMux(),
		start:     time.Now(),
		drained:   make(chan struct{}),
		subsStop:  make(chan struct{}),
		tstats:    map[string]*TenantCounters{},
		tinflight: map[string]int{},
	}
	for _, t := range tenants.List() {
		s.tstats[t.Name] = &TenantCounters{}
	}
	s.mux.HandleFunc("POST /v1/sql", s.handleSQL)
	s.mux.HandleFunc("POST /v1/stream", s.handleStream)
	s.mux.HandleFunc("POST /v1/tables", s.handleTables)
	s.mux.HandleFunc("POST /v1/gang", s.handleGang)
	s.mux.HandleFunc("POST /v1/hosts", s.handleHosts)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("POST /drain", s.handleDrain)
	return s
}

// Handler returns the server's routing handler, behind recoverPanics.
func (s *Server) Handler() http.Handler { return s.recoverPanics(s.mux) }

// recoverPanics answers a request whose handler panicked with 500 and the
// JSON error envelope naming the route, and counts it (/metrics
// panics_total). Without it net/http recovers the panic itself, logs it
// and closes the connection: the client gets no status and no body. The
// server keeps serving — every handler releases what it holds (admission,
// the tenant's inflight slot) in defers, which run as the panic unwinds.
// http.ErrAbortHandler is re-raised: it is how a handler asks net/http to
// drop the connection. A handler that has already written its header (a
// held-open stream) gets the envelope appended as a best effort.
func (s *Server) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			v := recover()
			if v == nil {
				return
			}
			if v == http.ErrAbortHandler {
				panic(v)
			}
			route := r.Pattern
			if route == "" {
				route = r.Method + " " + r.URL.Path
			}
			s.panics.Add(1)
			log.Printf("serve: panic serving %s: %v\n%s", route, v, debug.Stack())
			writeErr(w, http.StatusInternalServerError, "serve: internal error serving %s: %v", route, v)
		}()
		next.ServeHTTP(w, r)
	})
}

// Engine returns the fronted engine (tests register fixtures on it).
func (s *Server) Engine() *sql.Engine { return s.eng }

// errorBody is the uniform JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

// bodyPool recycles the buffers responses are encoded into.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledBody is the largest buffer returned to bodyPool: one huge
// response must not pin its buffer for the daemon's lifetime.
const maxPooledBody = 1 << 20

// writeJSON answers code with v encoded as JSON. The body is encoded into
// a buffer before the header goes out, so a value that cannot be encoded
// — a non-finite Float, which JSON has no number for — is answered 500
// with an error body naming the failure, never code with an empty body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	buf := bodyPool.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= maxPooledBody {
			bodyPool.Put(buf)
		}
	}()
	buf.Reset()
	if err := encodeJSON(buf, v); err != nil {
		buf.Reset()
		code = http.StatusInternalServerError
		_ = encodeJSON(buf, errorBody{Error: fmt.Sprintf("serve: response not encodable as JSON: %v", err)})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(buf.Bytes())
}

// encodeJSON appends v's JSON encoding and a newline to buf, HTML
// characters unescaped.
func encodeJSON(buf *bytes.Buffer, v any) error {
	enc := json.NewEncoder(buf)
	enc.SetEscapeHTML(false)
	return enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorBody{Error: fmt.Sprintf(format, args...)})
}

// MaxRequestBytes caps every request body the server decodes. Reading
// stops there and the request is answered 413, so no body — a table, an
// ingest batch, a statement — can grow a shared daemon's memory past it;
// legitimate bodies are orders of magnitude smaller.
const MaxRequestBytes = 32 << 20

// decodeJSON decodes the request's JSON body into v through a reader
// capped at MaxRequestBytes. When the body is unusable it answers the
// request itself and returns false: 413 past the cap, otherwise 400 with
// bad and the decoder's error.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any, bad string) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxRequestBytes)).Decode(v)
	var tooLarge *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooLarge):
		writeErr(w, http.StatusRequestEntityTooLarge, "serve: request body over %d bytes", MaxRequestBytes)
	default:
		writeErr(w, http.StatusBadRequest, "%s: %v", bad, err)
	}
	return false
}

// authenticate resolves the request's tenant from Authorization: Bearer
// or X-API-Key.
func (s *Server) authenticate(r *http.Request) (*Tenant, bool) {
	key := r.Header.Get("X-API-Key")
	if key == "" {
		if auth := r.Header.Get("Authorization"); strings.HasPrefix(auth, "Bearer ") {
			key = strings.TrimPrefix(auth, "Bearer ")
		}
	}
	if key == "" {
		return nil, false
	}
	return s.tenants.ByKey(key)
}

// admit gates a request on the drain state and tracks it in-flight.
// The returned release must be called when the request finishes; ok is
// false when the server is draining (the caller 503s).
func (s *Server) admit() (release func(), ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, false
	}
	s.inflight.Add(1)
	s.inflightCount++
	return func() {
		s.mu.Lock()
		s.inflightCount--
		s.mu.Unlock()
		s.inflight.Done()
	}, true
}

// admitRate charges one submission to the tenant's token bucket,
// answering the refusal (429 + Retry-After sized to the bucket's
// deficit) itself. Returns false when the caller should stop.
func (s *Server) admitRate(t *Tenant, w http.ResponseWriter) bool {
	ok, retryAfter := s.limiter.allow(t)
	if ok {
		return true
	}
	s.mu.Lock()
	s.tstats[t.Name].RateLimited++
	s.mu.Unlock()
	w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	writeErr(w, http.StatusTooManyRequests,
		"serve: tenant %s over rate limit (%g/s) — retry in %ds", t.Name, t.RatePerSec, retryAfter)
	return false
}

// admitTenant gates one query on its tenant's max_inflight cap. ok is
// false when the tenant is at its limit (the caller 429s); otherwise
// the returned release must be called when the query finishes.
func (s *Server) admitTenant(t *Tenant) (release func(), ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t.MaxInflight > 0 && s.tinflight[t.Name] >= t.MaxInflight {
		s.tstats[t.Name].Throttled++
		return nil, false
	}
	s.tinflight[t.Name]++
	return func() {
		s.mu.Lock()
		s.tinflight[t.Name]--
		s.mu.Unlock()
	}, true
}

// consumeGangSlot claims one announced gang slot, if any are
// outstanding. The returned Slot (nil when none were outstanding or the
// engine has no fabric — nil is safe to Withdraw) is the idempotent
// release handle: however many error paths fire on a query that dies
// without reaching the fabric, the slot is withdrawn at most once.
func (s *Server) consumeGangSlot() *dist.Slot {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.gangRemaining <= 0 {
		return nil
	}
	s.gangRemaining--
	if fab := s.eng.Fabric(); fab != nil {
		return fab.Claim()
	}
	return nil
}

// QueryRequest is the /v1/sql body.
type QueryRequest struct {
	SQL string `json:"sql"`
	// Prepare routes the statement through the prepared-statement cache:
	// the first submission prepares and caches, repeats hit. One-shot
	// queries (Prepare false) parse fresh every time.
	Prepare bool `json:"prepare,omitempty"`
}

// QueryResponse is the /v1/sql response: the canonical wire result plus
// the serving envelope.
type QueryResponse struct {
	Tenant string `json:"tenant"`
	// CacheHit reports that a prepared submission was served from the
	// plan cache (false on the priming miss and for one-shot queries).
	CacheHit bool `json:"cache_hit"`
	// CatalogEpoch is the engine catalog version the statement ran
	// against.
	CatalogEpoch uint64 `json:"catalog_epoch"`
	// ElapsedMS is the server-side wall-clock handling time.
	ElapsedMS float64 `json:"elapsed_ms"`
	// ModelMS is the modeled service time (simulated network wall plus
	// spill I/O; 0 for single-node runs) — see wire.Result.ModelSeconds.
	ModelMS float64      `json:"model_ms"`
	Result  *wire.Result `json:"result"`
}

func (s *Server) handleSQL(w http.ResponseWriter, r *http.Request) {
	tenant, ok := s.authenticate(r)
	if !ok {
		writeErr(w, http.StatusUnauthorized, "serve: unknown or missing API key")
		return
	}
	release, ok := s.admit()
	if !ok {
		writeErr(w, http.StatusServiceUnavailable, "serve: draining — not accepting new queries")
		return
	}
	defer release()
	if !s.admitRate(tenant, w) {
		return
	}
	trelease, ok := s.admitTenant(tenant)
	if !ok {
		// Refused before the body is even read: an over-limit tenant
		// costs the server one map lookup, not a parse.
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusTooManyRequests,
			"serve: tenant %s at max inflight (%d) — retry later", tenant.Name, tenant.MaxInflight)
		return
	}
	defer trelease()
	const bad = "serve: body must be JSON {\"sql\": ...}"
	var req QueryRequest
	if !decodeJSON(w, r, &req, bad) {
		return
	}
	if req.SQL == "" {
		writeErr(w, http.StatusBadRequest, bad)
		return
	}
	if s.beforeExecute != nil {
		s.beforeExecute(tenant, req)
	}
	gangSlot := s.consumeGangSlot()
	started := time.Now()
	res, hit, epoch, err := s.execute(r.Context(), tenant, req)
	ts := s.tstats[tenant.Name]
	if err != nil {
		// The query never reached (or died holding) its barrier slot; if
		// it was counted toward an announced gang, release the slot so
		// the surviving parties' admission round can run. The Slot is
		// once-guarded, so this stays safe even if another error hook
		// (a cancellation path, say) also withdraws it.
		gangSlot.Withdraw()
		s.mu.Lock()
		ts.Errors++
		s.mu.Unlock()
		code := http.StatusUnprocessableEntity
		if r.Context().Err() != nil {
			// Client went away mid-query; the write below is best-effort.
			code = http.StatusRequestTimeout
		}
		writeErr(w, code, "%v", err)
		return
	}
	wres := wire.FromResult(res)
	s.mu.Lock()
	s.served++
	ts.Queries++
	ts.Rows += uint64(wres.RowCount)
	if hit {
		ts.CacheHits++
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, QueryResponse{
		Tenant:       tenant.Name,
		CacheHit:     hit,
		CatalogEpoch: epoch,
		ElapsedMS:    time.Since(started).Seconds() * 1e3,
		ModelMS:      wres.ModelSeconds() * 1e3,
		Result:       wres,
	})
}

// execute runs one statement for a tenant, through the plan cache when
// the request asks for a prepared statement.
func (s *Server) execute(ctx context.Context, tenant *Tenant, req QueryRequest) (*sql.Result, bool, uint64, error) {
	sess := tenant.Session(s.eng)
	if !req.Prepare {
		res, err := sess.Query(ctx, req.SQL)
		return res, false, s.eng.CatalogEpoch(), err
	}
	key := s.cache.Key(tenant, req.SQL)
	epoch := s.eng.CatalogEpoch()
	if stmt, ok := s.cache.Get(key, epoch); ok {
		res, err := stmt.Bind(sess).Exec(ctx)
		return res, true, epoch, err
	}
	stmt, err := sess.Prepare(req.SQL)
	if err != nil {
		return nil, false, epoch, err
	}
	// Cache under the epoch read before preparing: if a Register landed
	// in between, the entry is already stale and the next lookup
	// re-prepares — conservative, never wrong.
	s.cache.Put(key, stmt, epoch)
	res, err := stmt.Exec(ctx)
	return res, false, epoch, err
}

// TableRequest is the /v1/tables body: a relation to register (or
// replace) in the engine catalog.
type TableRequest struct {
	Name   string        `json:"name"`
	Schema []wire.Column `json:"schema"`
	// ShardKey, when set, hash-places the table on that column (see
	// sql.Engine.Place); empty leaves it range-placed. A name that is not
	// a column of Schema is refused with 422.
	ShardKey string `json:"shard_key,omitempty"`
	// Rows carries one []any per row. An int cell is a JSON number of
	// integral value (3.0 and 1e3 are accepted), read exactly.
	Rows [][]any `json:"rows"`
}

// TableResponse acknowledges a registration.
type TableResponse struct {
	Name         string `json:"name"`
	Rows         int    `json:"rows"`
	CatalogEpoch uint64 `json:"catalog_epoch"`
}

func (s *Server) handleTables(w http.ResponseWriter, r *http.Request) {
	if _, ok := s.authenticate(r); !ok {
		writeErr(w, http.StatusUnauthorized, "serve: unknown or missing API key")
		return
	}
	release, ok := s.admit()
	if !ok {
		writeErr(w, http.StatusServiceUnavailable, "serve: draining — not accepting new registrations")
		return
	}
	defer release()
	var req tableBody
	if !decodeJSON(w, r, &req, "serve: bad table body") {
		return
	}
	rel, err := decodeRelation(&req)
	if err != nil {
		writeErr(w, rowsStatus(err), "%v", err)
		return
	}
	if req.ShardKey != "" && rel.Schema.ColIndex(req.ShardKey) < 0 {
		writeErr(w, http.StatusUnprocessableEntity, "serve: shard_key %q is not a column of %s", req.ShardKey, rel.Name)
		return
	}
	s.eng.Register(rel)
	if req.ShardKey != "" {
		if err := s.eng.Place(rel.Name, req.ShardKey); err != nil {
			writeErr(w, http.StatusUnprocessableEntity, "%v", err)
			return
		}
	}
	writeJSON(w, http.StatusOK, TableResponse{Name: rel.Name, Rows: rel.Len(), CatalogEpoch: s.eng.CatalogEpoch()})
}

// tableBody is how the server decodes a TableRequest: its rows stay raw
// JSON until the schema is known, then decode straight into columns
// (wire.DecodeRows).
type tableBody struct {
	TableRequest
	Rows json.RawMessage `json:"rows"`
}

// decodeRelation converts a wire table into a relational.Relation.
func decodeRelation(req *tableBody) (*relational.Relation, error) {
	if req.Name == "" || len(req.Schema) == 0 {
		return nil, fmt.Errorf("serve: table needs a name and a schema")
	}
	schema := make(relational.Schema, len(req.Schema))
	for i, c := range req.Schema {
		var t relational.Type
		switch c.Type {
		case "int":
			t = relational.Int
		case "float":
			t = relational.Float
		case "string":
			t = relational.String
		default:
			return nil, fmt.Errorf("serve: column %s: unknown type %q", c.Name, c.Type)
		}
		schema[i] = relational.Column{Name: c.Name, Type: t}
	}
	rel := relational.NewRelation(req.Name, schema)
	if noRows(req.Rows) {
		return rel.Extend(nil)
	}
	cols, n, err := wire.DecodeRows(req.Rows, schema)
	if err != nil {
		return nil, err
	}
	return rel.ExtendColumns(cols, n)
}

// noRows reports whether raw, a body's rows kept raw, holds no row:
// absent, null or [].
func noRows(raw json.RawMessage) bool {
	raw = bytes.TrimSpace(raw)
	if len(raw) == 0 || string(raw) == "null" {
		return true
	}
	return raw[0] == '[' && bytes.HasPrefix(bytes.TrimSpace(raw[1:]), []byte("]"))
}

// rowsStatus is the status for a rows decode error: 400, as for any
// malformed body, when the rows are not rows at all; 422 when the schema
// refuses one.
func rowsStatus(err error) int {
	if errors.Is(err, wire.ErrNotRows) {
		return http.StatusBadRequest
	}
	return http.StatusUnprocessableEntity
}

// GangRequest is the /v1/gang body: Announce delays the shared fabric's
// next admission round until that many queries are in flight (the load
// harness uses it so a wave of concurrent sessions genuinely contends —
// the serving analogue of rethink-sql's Expect barrier), and Withdraw
// releases slots a client announced but can no longer fill (e.g. its
// own request errored before reaching the server).
type GangRequest struct {
	Announce int `json:"announce,omitempty"`
	Withdraw int `json:"withdraw,omitempty"`
}

// GangResponse reports the outstanding slot count.
type GangResponse struct {
	Outstanding int `json:"outstanding"`
}

func (s *Server) handleGang(w http.ResponseWriter, r *http.Request) {
	if _, ok := s.authenticate(r); !ok {
		writeErr(w, http.StatusUnauthorized, "serve: unknown or missing API key")
		return
	}
	const bad = "serve: body must be JSON {\"announce\": n} or {\"withdraw\": n}"
	var req GangRequest
	if !decodeJSON(w, r, &req, bad) {
		return
	}
	if req.Announce < 0 || req.Withdraw < 0 {
		writeErr(w, http.StatusBadRequest, bad)
		return
	}
	fab := s.eng.Fabric()
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		writeErr(w, http.StatusServiceUnavailable, "serve: draining")
		return
	}
	if req.Announce > 0 {
		s.gangRemaining += req.Announce
		if fab != nil {
			fab.Expect(s.gangRemaining)
		}
	}
	wd := req.Withdraw
	if wd > s.gangRemaining {
		wd = s.gangRemaining
	}
	s.gangRemaining -= wd
	out := s.gangRemaining
	s.mu.Unlock()
	if fab != nil {
		for i := 0; i < wd; i++ {
			fab.Withdraw()
		}
	}
	writeJSON(w, http.StatusOK, GangResponse{Outstanding: out})
}

// Metrics is the /metrics document.
type Metrics struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Draining      bool    `json:"draining"`
	Inflight      int     `json:"inflight"`
	QueriesServed uint64  `json:"queries_served"`
	CatalogEpoch  uint64  `json:"catalog_epoch"`
	// PanicsTotal counts requests whose handler panicked and were
	// answered 500 (see recoverPanics).
	PanicsTotal uint64 `json:"panics_total"`
	// Tenants maps tenant name to its serving totals.
	Tenants map[string]*TenantCounters `json:"tenants"`
	// PlanCache is the prepared-statement cache counter snapshot.
	PlanCache PlanCacheStats `json:"plan_cache"`
	// Fabric is the shared-fabric aggregate (nil on single-node engines):
	// link utilization plus the raw admission counters, whose ClassBytes
	// map is the per-tenant-class bandwidth attribution.
	Fabric *dist.FabricStats `json:"fabric,omitempty"`
	// Cluster is the cluster health snapshot (nil on single-node
	// engines): membership counts, rebalance/repair totals, and
	// fault-schedule progress.
	Cluster *lifecycle.Health `json:"cluster,omitempty"`
}

// MetricsSnapshot builds the /metrics document (exported for in-process
// harnesses).
func (s *Server) MetricsSnapshot() *Metrics {
	m := &Metrics{
		UptimeSeconds: time.Since(s.start).Seconds(),
		CatalogEpoch:  s.eng.CatalogEpoch(),
		PlanCache:     s.cache.Stats(),
		PanicsTotal:   s.panics.Load(),
		Tenants:       map[string]*TenantCounters{},
	}
	s.mu.Lock()
	m.Draining = s.draining
	m.Inflight = s.inflightCount
	m.QueriesServed = s.served
	for name, ts := range s.tstats {
		c := *ts
		m.Tenants[name] = &c
	}
	s.mu.Unlock()
	// A distributed engine has a fabric and a membership manager; a
	// single-node engine has neither.
	if fab := s.eng.Fabric(); fab != nil {
		h := s.eng.Lifecycle().Health()
		m.Fabric, m.Cluster = fab.Stats(), &h
	}
	return m
}

// HostRequest is the /v1/hosts body: one membership action against the
// elastic cluster. "drain" evacuates a worker's shards to other live
// replicas (the host stays up as a copy source but serves no primaries),
// "restore" re-admits a drained worker, "join" annexes a spare topology
// host as a new worker. Drain/restore address a worker index; join
// ignores it.
type HostRequest struct {
	Action string `json:"action"`
	Worker int    `json:"worker"`
}

// HostResponse reports the affected worker (the new worker's index for
// join) and the post-action cluster health.
type HostResponse struct {
	Action  string            `json:"action"`
	Worker  int               `json:"worker"`
	Cluster *lifecycle.Health `json:"cluster"`
}

func (s *Server) handleHosts(w http.ResponseWriter, r *http.Request) {
	if _, ok := s.authenticate(r); !ok {
		writeErr(w, http.StatusUnauthorized, "serve: unknown or missing API key")
		return
	}
	release, ok := s.admit()
	if !ok {
		writeErr(w, http.StatusServiceUnavailable, "serve: draining — not accepting membership changes")
		return
	}
	defer release()
	var req HostRequest
	if !decodeJSON(w, r, &req, "serve: body must be JSON {\"action\": ..., \"worker\": n}") {
		return
	}
	worker := req.Worker
	var err error
	switch req.Action {
	case "drain":
		err = s.eng.DrainHost(req.Worker)
	case "restore":
		err = s.eng.RestoreHost(req.Worker)
	case "join":
		worker, err = s.eng.JoinHost()
	default:
		writeErr(w, http.StatusBadRequest, "serve: unknown host action %q (have drain, restore, join)", req.Action)
		return
	}
	if err != nil {
		writeErr(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	// The action succeeded, so the engine has a cluster (a single-node
	// engine refuses all three above).
	h := s.eng.Lifecycle().Health()
	writeJSON(w, http.StatusOK, HostResponse{Action: req.Action, Worker: worker, Cluster: &h})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.MetricsSnapshot())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	status := "ok"
	code := http.StatusOK
	if draining {
		status, code = "draining", http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]string{"status": status})
}

// Drain puts the server into graceful shutdown: new work is refused
// with 503, announced-but-unfilled gang slots are withdrawn from the
// fabric's admission barrier (so in-flight queries parked there resume
// instead of waiting for peers that will never arrive), and the call
// blocks until every in-flight request has finished or ctx expires.
// Drain is idempotent; concurrent calls all wait for the same drain.
func (s *Server) Drain(ctx context.Context) error {
	s.drainOnce.Do(func() {
		s.mu.Lock()
		s.draining = true
		orphans := s.gangRemaining
		s.gangRemaining = 0
		s.mu.Unlock()
		close(s.subsStop) // held-open subscriptions end now, not at stream close
		if fab := s.eng.Fabric(); fab != nil {
			for i := 0; i < orphans; i++ {
				fab.Withdraw()
			}
		}
		go func() {
			s.inflight.Wait()
			close(s.drained)
		}()
	})
	select {
	case <-s.drained:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	if err := s.Drain(r.Context()); err != nil {
		writeErr(w, http.StatusRequestTimeout, "serve: drain interrupted: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, s.MetricsSnapshot())
}
