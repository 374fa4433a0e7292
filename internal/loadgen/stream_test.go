package loadgen

import (
	"context"
	"net/http/httptest"
	"testing"

	"repro/internal/relational"
	"repro/internal/serve"
	"repro/internal/sql"
)

// streamServer boots a distributed server fronting an empty "events"
// relation ready for streaming ingest.
func streamServer(t *testing.T) *serve.Server {
	t.Helper()
	cfg := sql.DefaultConfig()
	cfg.Distributed = true
	cfg.Shards = 2
	eng, err := sql.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng.Register(relational.NewRelation("events", relational.Schema{
		{Name: "k", Type: relational.String},
		{Name: "t", Type: relational.Int},
		{Name: "v", Type: relational.Int},
	}))
	return serve.New(eng, serve.DefaultTenants(), serve.Options{})
}

// TestStreamLoadInProc: the streaming harness end to end over the
// in-process transport, twice — the second run exercises the
// re-register-reopens-the-stream path against a daemon whose previous
// events stream was closed.
func TestStreamLoadInProc(t *testing.T) {
	srv := streamServer(t)
	for run := 0; run < 2; run++ {
		rep, err := RunStreamLoad(context.Background(), StreamLoadConfig{
			Target: Target{Handler: srv.Handler()},
			Events: 5000,
			Batch:  250,
			Window: serve.WindowRequest{TimeCol: "t", Size: 500, Slide: 100},
		})
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if rep.Batches != 20 || rep.Events != 5000 {
			t.Fatalf("run %d: report = %+v", run, rep)
		}
		if rep.Windows < 40 {
			t.Fatalf("run %d: only %d windows (size 500 slide 100 over t=0..4999)", run, rep.Windows)
		}
		if rep.Dropped != 0 || rep.Late != 0 {
			t.Fatalf("run %d: in-order feed dropped %d late %d", run, rep.Dropped, rep.Late)
		}
		if rep.IngestEventsPerSec <= 0 || rep.Bytes <= 0 {
			t.Fatalf("run %d: throughput missing: %+v", run, rep)
		}
		if rep.IngestNetSeconds <= 0 {
			t.Fatalf("run %d: distributed ingest should bill fabric time", run)
		}
		if rep.FreshnessP95MS < 0 || rep.FreshnessMaxMS < rep.FreshnessP95MS {
			t.Fatalf("run %d: freshness quantiles inconsistent: %+v", run, rep)
		}
	}
}

// TestStreamLoadOverSocket: the streaming harness against a daemon on a
// real loopback listener, where the subscription's NDJSON lines arrive
// live while ingest is still running.
func TestStreamLoadOverSocket(t *testing.T) {
	ts := httptest.NewServer(streamServer(t).Handler())
	defer ts.Close()
	rep, err := RunStreamLoad(context.Background(), StreamLoadConfig{
		Target: Target{BaseURL: ts.URL},
		Events: 5000,
		Batch:  250,
		Window: serve.WindowRequest{TimeCol: "t", Size: 500, Slide: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Batches != 20 || rep.Windows < 40 || rep.Dropped != 0 || rep.Late != 0 {
		t.Fatalf("report = %+v", rep)
	}
}
