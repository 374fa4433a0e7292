package serve

import (
	"encoding/json"
	"fmt"

	"repro/internal/sql"
)

// Tenant is one project on a shared engine: an API key to authenticate
// its requests and the per-session defaults every query it submits runs
// under. Those defaults are sql.Overrides itself, embedded — in
// tenants.json its JSON-tagged fields sit beside name and api_key — so a
// tenant at Weight 3 competes for the shared fabric with three times the
// bandwidth share of a Weight-1 tenant, which is the whole point of
// fronting one engine with a multi-tenant daemon.
type Tenant struct {
	// Name identifies the tenant in metrics and reports.
	Name string `json:"name"`
	// APIKey authenticates requests (Authorization: Bearer <key> or
	// X-API-Key). Keys must be unique across the tenant set.
	APIKey string `json:"api_key"`
	// Overrides are the session settings the tenant's queries run under.
	sql.Overrides
	// MaxInflight caps the tenant's concurrently executing queries: a
	// submission past the cap is refused with 429 and a Retry-After hint
	// instead of queueing, so one tenant's burst cannot monopolize the
	// engine ahead of the fabric's QoS weights. 0 means uncapped.
	MaxInflight int `json:"max_inflight,omitempty"`
	// RatePerSec caps the tenant's sustained submission rate across
	// /v1/sql and /v1/stream in requests per second, enforced by a token
	// bucket: a submission with no token is refused with 429 and a
	// Retry-After hint sized to the bucket's deficit. Where MaxInflight
	// bounds concurrency, RatePerSec bounds throughput — a tenant issuing
	// fast one-shot queries can stay under one cap while blowing through
	// the other. 0 means unlimited.
	RatePerSec float64 `json:"rate_per_sec,omitempty"`
	// Burst is the token bucket's depth — how many submissions may land
	// back-to-back before RatePerSec applies. 0 defaults to RatePerSec
	// (at least 1).
	Burst float64 `json:"burst,omitempty"`
}

// burst is the tenant's effective bucket depth.
func (t *Tenant) burst() float64 {
	b := t.Burst
	if b <= 0 {
		b = t.RatePerSec
	}
	if b < 1 {
		b = 1
	}
	return b
}

// Session opens a fresh engine session carrying the tenant's defaults.
// Sessions are cheap; the server opens one per request.
func (t *Tenant) Session(eng *sql.Engine) *sql.Session {
	s := eng.Session()
	s.Overrides = t.Overrides
	return s
}

// configKey renders the tenant's session overrides — all of them, by
// field name — as a deterministic string: the "session-config" leg of the
// plan-cache key, so two tenants (or one reconfigured tenant) never share
// a cached statement unless every knob that affects planning agrees.
// MaxInflight, RatePerSec and Burst are deliberately absent: they gate
// admission, not planning.
func (t *Tenant) configKey() string {
	return fmt.Sprintf("%#v", t.Overrides)
}

// Tenants is an immutable tenant set with API-key lookup.
type Tenants struct {
	byKey  map[string]*Tenant
	byName map[string]*Tenant
	order  []*Tenant
}

// NewTenants validates the set: names and API keys must be non-empty
// and unique, weights non-negative, and every tenant's session overrides
// valid (sql.Overrides.Validate), so a bad tenants.json stops the daemon
// at startup instead of failing that tenant's queries.
func NewTenants(list []Tenant) (*Tenants, error) {
	if len(list) == 0 {
		return nil, fmt.Errorf("serve: no tenants configured")
	}
	ts := &Tenants{byKey: map[string]*Tenant{}, byName: map[string]*Tenant{}}
	for i := range list {
		t := &list[i]
		if t.Name == "" || t.APIKey == "" {
			return nil, fmt.Errorf("serve: tenant %d needs a name and an api_key", i)
		}
		if t.Weight < 0 {
			return nil, fmt.Errorf("serve: tenant %s: negative weight %g", t.Name, t.Weight)
		}
		if t.MaxInflight < 0 {
			return nil, fmt.Errorf("serve: tenant %s: negative max_inflight %d", t.Name, t.MaxInflight)
		}
		if t.RatePerSec < 0 {
			return nil, fmt.Errorf("serve: tenant %s: negative rate_per_sec %g", t.Name, t.RatePerSec)
		}
		if t.Burst < 0 {
			return nil, fmt.Errorf("serve: tenant %s: negative burst %g", t.Name, t.Burst)
		}
		if err := t.Overrides.Validate(); err != nil {
			return nil, fmt.Errorf("serve: tenant %s: %w", t.Name, err)
		}
		if _, dup := ts.byName[t.Name]; dup {
			return nil, fmt.Errorf("serve: duplicate tenant name %q", t.Name)
		}
		if _, dup := ts.byKey[t.APIKey]; dup {
			return nil, fmt.Errorf("serve: duplicate api key (tenant %s)", t.Name)
		}
		ts.byName[t.Name] = t
		ts.byKey[t.APIKey] = t
		ts.order = append(ts.order, t)
	}
	return ts, nil
}

// ParseTenants decodes a JSON tenant list (the -tenants file format of
// rethinkd: a top-level array of Tenant objects) and validates it.
func ParseTenants(data []byte) (*Tenants, error) {
	var list []Tenant
	if err := json.Unmarshal(data, &list); err != nil {
		return nil, fmt.Errorf("serve: tenants config: %w", err)
	}
	return NewTenants(list)
}

// DefaultTenants is the two-tenant playground the daemon and load
// harness boot with when no tenant file is given: "gold" at weight 3 in
// the interactive class against best-effort "bronze" at weight 1 — the
// 3:1 walkthrough of the QoS examples, as a serving config.
func DefaultTenants() *Tenants {
	ts, err := NewTenants([]Tenant{
		{Name: "gold", APIKey: "gold-key", Overrides: sql.Overrides{Priority: "interactive", Weight: 3}},
		{Name: "bronze", APIKey: "bronze-key", Overrides: sql.Overrides{Weight: 1}},
	})
	if err != nil {
		panic(err)
	}
	return ts
}

// ByKey resolves an API key to its tenant.
func (ts *Tenants) ByKey(key string) (*Tenant, bool) {
	t, ok := ts.byKey[key]
	return t, ok
}

// ByName resolves a tenant name.
func (ts *Tenants) ByName(name string) (*Tenant, bool) {
	t, ok := ts.byName[name]
	return t, ok
}

// List returns the tenants in configuration order.
func (ts *Tenants) List() []*Tenant { return ts.order }
