package loadgen

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/serve"
	"repro/internal/serve/wire"
)

// streamTable is the relation a streaming run registers fresh (schema
// k string, t int, v int), and streamSQL the continuous query it holds
// open over it.
const (
	streamTable = "events"
	streamSQL   = "SELECT k, SUM(v) AS total, COUNT(*) AS n FROM " + streamTable + " GROUP BY k"
)

// StreamLoadConfig drives one streaming run against a serving front
// door: register a fresh events relation, hold a continuous-query
// subscription open, pump batches through /v1/stream, close, and
// report ingest throughput plus window freshness.
type StreamLoadConfig struct {
	Target
	// APIKey authenticates the run (default gold-key, the demo tenant).
	APIKey string
	// Events is the total event count (default 100000).
	Events int
	// Batch is the events-per-request ingest granularity (default 500).
	Batch int
	// Keys is the group-key cardinality (default 50).
	Keys int
	// Window shapes the subscription (defaults: time_col t, size 1000,
	// slide 250, lateness 0 — events arrive in time order).
	Window serve.WindowRequest
}

// StreamLoadReport is the machine-readable result (the BENCH artifact
// format for the streaming smoke).
type StreamLoadReport struct {
	Table   string  `json:"table"`
	Events  int     `json:"events"`
	Batches int     `json:"batches"`
	Bytes   float64 `json:"bytes"`
	// IngestWallMS is the client-observed wall time from the first batch
	// post to the close ack; IngestEventsPerSec is Events over that wall.
	IngestWallMS       float64 `json:"ingest_wall_ms"`
	IngestEventsPerSec float64 `json:"ingest_events_per_sec"`
	// IngestNetSeconds is the modeled fabric time the ingest-class flows
	// took (0 on single-node engines).
	IngestNetSeconds float64 `json:"ingest_net_seconds"`
	// Windows/Late/Dropped are the subscription's terminal accounting.
	Windows int64 `json:"windows"`
	Late    int64 `json:"late"`
	Dropped int64 `json:"dropped"`
	// Freshness quantiles are engine-side emission lag: batch arrival to
	// window handoff, in milliseconds.
	FreshnessP50MS float64 `json:"freshness_p50_ms"`
	FreshnessP95MS float64 `json:"freshness_p95_ms"`
	FreshnessMaxMS float64 `json:"freshness_max_ms"`
}

// Summary renders the human-readable report.
func (r *StreamLoadReport) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "stream %s: %d events in %d batches (%.0f bytes)\n",
		r.Table, r.Events, r.Batches, r.Bytes)
	fmt.Fprintf(&b, "  ingest: %.1f ms wall, %.0f events/s", r.IngestWallMS, r.IngestEventsPerSec)
	if r.IngestNetSeconds > 0 {
		fmt.Fprintf(&b, ", %.3fs modeled fabric time (ingest class)", r.IngestNetSeconds)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "  windows: %d emitted (%d late, %d dropped)\n", r.Windows, r.Late, r.Dropped)
	fmt.Fprintf(&b, "  freshness: p50 %.2f ms, p95 %.2f ms, max %.2f ms\n",
		r.FreshnessP50MS, r.FreshnessP95MS, r.FreshnessMaxMS)
	return b.String()
}

// RunStreamLoad executes one streaming run. The subscription is opened
// before the first batch, so windows emit live as the watermark passes
// them while ingest is still running (in BaseURL mode; the in-process
// transport buffers the response but the engine-side subscription still
// runs live); closing the stream flushes the tail and terminates it.
func RunStreamLoad(ctx context.Context, cfg StreamLoadConfig) (*StreamLoadReport, error) {
	if cfg.APIKey == "" {
		cfg.APIKey = "gold-key"
	}
	if cfg.Events <= 0 {
		cfg.Events = 100_000
	}
	if cfg.Batch <= 0 {
		cfg.Batch = 500
	}
	if cfg.Keys <= 0 {
		cfg.Keys = 50
	}
	if cfg.Window.TimeCol == "" {
		cfg.Window.TimeCol = "t"
	}
	if cfg.Window.Size <= 0 {
		cfg.Window.Size = 1000
		cfg.Window.Slide = 250
	}
	c, err := cfg.client(2)
	if err != nil {
		return nil, err
	}

	// A fresh relation every run keeps the harness re-runnable against a
	// long-lived daemon (a closed stream stays closed).
	if err := c.call(ctx, "/v1/tables", cfg.APIKey, serve.TableRequest{
		Name: streamTable,
		Schema: []wire.Column{
			{Name: "k", Type: "string"},
			{Name: "t", Type: "int"},
			{Name: "v", Type: "int"},
		},
	}, nil); err != nil {
		return nil, err
	}

	// The subscriber holds the NDJSON response open for the whole run
	// and parses it down to the terminal stats line.
	type subResult struct {
		windows int
		end     *serve.StreamEnd
		err     error
	}
	subCtx, subCancel := context.WithCancel(ctx)
	defer subCancel()
	subCh := make(chan subResult, 1)
	go func() {
		n, end, err := c.subscribe(subCtx, cfg.APIKey, cfg.Window)
		subCh <- subResult{windows: n, end: end, err: err}
	}()

	rep := &StreamLoadReport{Table: streamTable, Events: cfg.Events}
	start := time.Now()
	for off := 0; off < cfg.Events; off += cfg.Batch {
		n := min(cfg.Batch, cfg.Events-off)
		rows := make([][]any, n)
		for i := 0; i < n; i++ {
			g := off + i
			rows[i] = []any{fmt.Sprintf("k%03d", g%cfg.Keys), g, g % 97}
		}
		var ack serve.IngestResponse
		if err := c.call(ctx, "/v1/stream", cfg.APIKey,
			serve.StreamRequest{Table: streamTable, Rows: rows}, &ack); err != nil {
			return nil, fmt.Errorf("loadgen: ingest batch at %d: %w", off, err)
		}
		rep.Batches++
		rep.Bytes += ack.Bytes
		rep.IngestNetSeconds += ack.NetSeconds
	}
	if err := c.call(ctx, "/v1/stream", cfg.APIKey,
		serve.StreamRequest{Table: streamTable, Close: true}, nil); err != nil {
		return nil, fmt.Errorf("loadgen: close stream: %w", err)
	}
	rep.IngestWallMS = time.Since(start).Seconds() * 1e3
	if rep.IngestWallMS > 0 {
		rep.IngestEventsPerSec = float64(cfg.Events) / (rep.IngestWallMS / 1e3)
	}

	sub := <-subCh
	if sub.err != nil {
		return nil, fmt.Errorf("loadgen: subscription: %w", sub.err)
	}
	st := sub.end.Stats
	if st == nil {
		return nil, fmt.Errorf("loadgen: subscription ended without stats (%d windows)", sub.windows)
	}
	if st.Events != int64(cfg.Events) {
		return nil, fmt.Errorf("loadgen: subscription saw %d events, ingested %d", st.Events, cfg.Events)
	}
	if int64(sub.windows) != st.Windows {
		return nil, fmt.Errorf("loadgen: read %d window lines, stats say %d", sub.windows, st.Windows)
	}
	rep.Windows, rep.Late, rep.Dropped = st.Windows, st.Late, st.Dropped
	rep.FreshnessP50MS = st.FreshnessP50 * 1e3
	rep.FreshnessP95MS = st.FreshnessP95 * 1e3
	rep.FreshnessMaxMS = st.FreshnessMax * 1e3
	return rep, nil
}

// subscribe posts the subscription and consumes its NDJSON lines until
// the terminal StreamEnd.
func (c *client) subscribe(ctx context.Context, apiKey string, window serve.WindowRequest) (int, *serve.StreamEnd, error) {
	var body io.ReadCloser
	if err := c.call(ctx, "/v1/stream", apiKey, serve.StreamRequest{SQL: streamSQL, Window: &window}, &body); err != nil {
		return 0, nil, err
	}
	defer body.Close()
	dec := json.NewDecoder(body)
	windows := 0
	for {
		var raw json.RawMessage
		if err := dec.Decode(&raw); err != nil {
			if err == io.EOF {
				return windows, nil, fmt.Errorf("stream ended without a terminal line")
			}
			return windows, nil, err
		}
		var end serve.StreamEnd
		if json.Unmarshal(raw, &end) == nil && end.Done {
			if end.Error != "" {
				return windows, &end, fmt.Errorf("subscription error: %s", end.Error)
			}
			return windows, &end, nil
		}
		windows++
	}
}
