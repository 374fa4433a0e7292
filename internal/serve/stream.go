package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/serve/wire"
	"repro/internal/stream"
)

// StreamRequest is the /v1/stream body. One endpoint, three modes:
//
//   - ingest: {"table": ..., "rows": [[...], ...]} appends a timestamped
//     batch to a registered relation — running queries keep their
//     snapshot, subscriptions see the batch, distributed engines bill
//     the movement to the fabric's ingest class. Add "close": true to
//     end the stream after the batch.
//   - close: {"table": ..., "close": true} ends the table's stream
//     without appending; every subscription flushes and completes.
//   - subscribe: {"sql": ..., "window": {...}} registers a continuous
//     query and holds the response open, emitting one NDJSON line per
//     closed window and a terminal summary line.
type StreamRequest struct {
	Table string  `json:"table,omitempty"`
	Rows  [][]any `json:"rows,omitempty"`
	Close bool    `json:"close,omitempty"`

	SQL    string         `json:"sql,omitempty"`
	Window *WindowRequest `json:"window,omitempty"`
}

// WindowRequest is the wire form of stream.WindowSpec.
type WindowRequest struct {
	// TimeCol names the Int column carrying event time (ticks).
	TimeCol string `json:"time_col"`
	// Size is the window length in ticks.
	Size int64 `json:"size"`
	// Slide is the emission stride; 0 means tumbling (Slide = Size).
	Slide int64 `json:"slide,omitempty"`
	// Lateness is how many ticks of disorder to absorb before emitting.
	Lateness int64 `json:"lateness,omitempty"`
}

// IngestResponse acknowledges an append (and/or close): once a client
// holds one, the batch is durable in the engine's catalog — the chaos
// suite's "acked events survive a kill" contract hangs off this.
type IngestResponse struct {
	Tenant string `json:"tenant"`
	Table  string `json:"table"`
	// Start is the row offset the batch landed at.
	Start int64   `json:"start"`
	Rows  int     `json:"rows"`
	Bytes float64 `json:"bytes"`
	// NetSeconds is the modeled fabric time the ingest flows took
	// (0 single-node).
	NetSeconds float64 `json:"net_seconds,omitempty"`
	// DataEpoch is the table's post-append data version.
	DataEpoch uint64 `json:"data_epoch"`
	// Closed reports that the table's stream is now closed.
	Closed bool `json:"closed,omitempty"`
}

// StreamWindow is one NDJSON line of a subscription: a closed window's
// result relation plus its accounting.
type StreamWindow struct {
	Start  int64 `json:"window_start"`
	End    int64 `json:"window_end"`
	Events int64 `json:"events"`
	Late   int64 `json:"late,omitempty"`
	// FreshnessMS is how long after the closing event the window was
	// handed to the wire.
	FreshnessMS float64       `json:"freshness_ms"`
	Columns     []wire.Column `json:"columns"`
	Rows        [][]any       `json:"rows"`
}

// StreamEnd is the terminal NDJSON line of a subscription.
type StreamEnd struct {
	Done   bool              `json:"done"`
	Tenant string            `json:"tenant"`
	Error  string            `json:"error,omitempty"`
	Stats  *wire.StreamStats `json:"stats,omitempty"`
}

func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	tenant, ok := s.authenticate(r)
	if !ok {
		writeErr(w, http.StatusUnauthorized, "serve: unknown or missing API key")
		return
	}
	release, ok := s.admit()
	if !ok {
		writeErr(w, http.StatusServiceUnavailable, "serve: draining — not accepting stream requests")
		return
	}
	defer release()
	if !s.admitRate(tenant, w) {
		return
	}
	var req streamBody
	if !decodeJSON(w, r, &req, "serve: bad stream body") {
		return
	}
	hasRows := !noRows(req.Rows)
	switch {
	case req.SQL != "":
		if req.Table != "" || hasRows || req.Close {
			writeErr(w, http.StatusBadRequest, "serve: a subscription carries only sql and window")
			return
		}
		s.streamSubscribe(w, r, tenant, &req.StreamRequest)
	case req.Table != "" && (hasRows || req.Close):
		s.streamIngest(w, tenant, &req, hasRows)
	default:
		writeErr(w, http.StatusBadRequest,
			"serve: stream body must carry table+rows (ingest), table+close, or sql+window (subscribe)")
	}
}

// streamBody is how the server decodes a StreamRequest: its rows stay raw
// JSON until the table's schema is known, then decode straight into
// columns (wire.DecodeRows).
type streamBody struct {
	StreamRequest
	Rows json.RawMessage `json:"rows"`
}

// streamIngest appends req's rows, when it has some, to the table
// (decoding them against its registered schema) and/or closes its stream.
func (s *Server) streamIngest(w http.ResponseWriter, tenant *Tenant, req *streamBody, hasRows bool) {
	rel, ok := s.eng.Table(req.Table)
	if !ok {
		writeErr(w, http.StatusUnprocessableEntity, "serve: unknown table %q", req.Table)
		return
	}
	resp := IngestResponse{Tenant: tenant.Name, Table: rel.Name}
	if hasRows {
		cols, n, err := wire.DecodeRows(req.Rows, rel.Schema)
		if err != nil {
			writeErr(w, rowsStatus(err), "%v", err)
			return
		}
		ing, err := s.eng.AppendColumns(req.Table, cols, n)
		if err != nil {
			writeErr(w, http.StatusUnprocessableEntity, "%v", err)
			return
		}
		resp.Start, resp.Rows = ing.Start, ing.Rows
		resp.Bytes, resp.NetSeconds = ing.Bytes, ing.NetSeconds
	}
	if req.Close {
		if err := s.eng.CloseStream(req.Table); err != nil {
			writeErr(w, http.StatusUnprocessableEntity, "%v", err)
			return
		}
	}
	resp.DataEpoch = s.eng.DataEpoch(req.Table)
	resp.Closed = s.eng.StreamClosed(req.Table)
	writeJSON(w, http.StatusOK, resp)
}

// streamSubscribe runs a continuous query, holding the response open
// and flushing one NDJSON line per closed window. The subscription ends
// when the source stream closes (final flush, done line carries the
// stats), the client disconnects, or the server drains.
func (s *Server) streamSubscribe(w http.ResponseWriter, r *http.Request, tenant *Tenant, req *StreamRequest) {
	if req.Window == nil {
		writeErr(w, http.StatusBadRequest, "serve: a subscription needs a window {time_col, size, ...}")
		return
	}
	spec := stream.WindowSpec{
		TimeCol:  req.Window.TimeCol,
		Size:     req.Window.Size,
		Slide:    req.Window.Slide,
		Lateness: req.Window.Lateness,
	}
	// The subscription dies with the client's connection or a server
	// drain, whichever comes first — a held-open response must not
	// wedge graceful shutdown.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	go func() {
		select {
		case <-s.subsStop:
			cancel()
		case <-ctx.Done():
		}
	}()
	sub, err := tenant.Session(s.eng).Subscribe(ctx, req.SQL, spec)
	if err != nil {
		writeErr(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	// Each window is encoded whole before any of it is written: a window
	// that cannot be encoded ends the stream with the error on its end
	// line instead of a torn or missing line.
	var line bytes.Buffer
	var encErr error
	for win := range sub.Out() {
		line.Reset()
		if encErr = encodeJSON(&line, StreamWindow{
			Start:       win.Start,
			End:         win.End,
			Events:      win.Events,
			Late:        win.Late,
			FreshnessMS: win.FreshnessSeconds * 1e3,
			Columns:     wire.Columns(win.Rows.Schema),
			Rows:        wire.Rows(win.Rows),
		}); encErr != nil {
			encErr = fmt.Errorf("serve: window [%d, %d) not encodable as JSON: %w", win.Start, win.End, encErr)
			cancel()
			break
		}
		if _, err := w.Write(line.Bytes()); err != nil {
			cancel() // writer gone; unhook the subscription
			break
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	<-sub.Done()
	st := sub.Stats()
	end := StreamEnd{Done: true, Tenant: tenant.Name, Stats: wire.FromStream(&st)}
	switch err := sub.Err(); {
	case encErr != nil:
		end.Error = encErr.Error()
	case err != nil:
		end.Error = err.Error()
	}
	s.mu.Lock()
	s.tstats[tenant.Name].Queries++
	s.tstats[tenant.Name].Rows += uint64(st.Windows)
	s.mu.Unlock()
	line.Reset()
	if encodeJSON(&line, end) == nil {
		_, _ = w.Write(line.Bytes())
	}
	if flusher != nil {
		flusher.Flush()
	}
}
