package main

import (
	"context"
	"testing"
	"time"
)

// TestServeMixTraced drives a traced fabric with both clients at once
// (run it under -race: the wrappers are shared by every client, handler
// and store goroutine) and checks the served rows and the layer counts.
func TestServeMixTraced(t *testing.T) {
	ctx := context.Background()
	sb, err := newServeBench(3, 2, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	f, err := sb.start(ctx, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer f.stop(ctx)
	f.resetCounters()
	since := time.Now()
	before := storeCounters(f)
	p, err := sb.load(ctx, f, 0, 0, coldEvery)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.ops) != serveClients*coldEvery {
		t.Fatalf("%d batches, want %d", len(p.ops), serveClients*coldEvery)
	}
	for i, e := range p.errs {
		if e != nil {
			t.Errorf("batch %d: %v", i, e)
		}
		// Only cold batches are simulated, so only they count accesses.
		if cold, acc := p.ops[i].cold, p.accesses[i]; cold != (acc > 0) {
			t.Errorf("batch %d: cold %v with %d simulated accesses", i, cold, acc)
		}
	}
	m, err := serveLayerMetrics(ctx, f, p, since, before)
	if err != nil {
		t.Fatal(err)
	}
	// One batch in four is cold: 8 fresh specs × 2 systems per client.
	if got, want := m["resultstore.puts"], float64(serveClients*batchRuns); got != want {
		t.Errorf("resultstore.puts %g, want %g", got, want)
	}
	if got := m["service.sims_per_fresh_spec"]; got != 1 {
		t.Errorf("service.sims_per_fresh_spec %g, want 1", got)
	}
	if got := m["client.requests_per_batch"]; got != 4 {
		t.Errorf("client.requests_per_batch %g, want 4 (submit, events, status, result)", got)
	}
	if m["client.wait_ms_p50"] <= 0 || m["service.worker_handler_s"] <= 0 || m["resultstore.compute_s"] <= 0 {
		t.Errorf("missing spans: %v", m)
	}
}
