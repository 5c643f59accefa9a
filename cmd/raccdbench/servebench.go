package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"raccd/client"
	"raccd/internal/resultstore" //raccd:layering-ok store counters are read from each worker's own store
)

// serveClients is how many closed-loop clients share the fabric: one
// per host CPU on the reference host.
const serveClients = 2

// serveBench drives serve-mix.
type serveBench struct {
	seed    int64
	jobs    int
	workDir string
	ref     reference
	nstart  int
}

func newServeBench(seed int64, jobs int, workDir string) (*serveBench, error) {
	ref, err := loadReference(serveMix)
	if err != nil {
		return nil, err
	}
	return &serveBench{seed: seed, jobs: jobs, workDir: workDir, ref: ref}, nil
}

// start brings up a fresh fabric in its own directory.
func (b *serveBench) start(ctx context.Context, tr *tracer) (*fabric, error) {
	b.nstart++
	dir := filepath.Join(b.workDir, fmt.Sprintf("serve-%d-%d", os.Getpid(), b.nstart))
	return startFabric(ctx, dir, tr, b.ref)
}

// servePass is the outcome of one load phase, after verification.
type servePass struct {
	ops      []batchOp
	errs     []error
	accesses []uint64
	wall     time.Duration
	host     hostCounters
	rss      []float64 // peak resident set (MB) of each load phase
}

// load runs one phase of closed-loop traffic and verifies every row.
func (b *serveBench) load(ctx context.Context, f *fabric, pass int, seconds float64, perClient int) (*servePass, error) {
	resetPeakRSS()
	before := readHost()
	t0 := time.Now()
	ops := serveLoad(ctx, f, b.seed, pass, t0.Add(time.Duration(seconds*float64(time.Second))), perClient)
	p := &servePass{ops: ops, wall: time.Since(t0), host: readHost().sub(before), rss: []float64{peakRSSMB()}}
	errs, acc, err := verifyServed(ctx, ops, b.ref, b.jobs)
	if err != nil {
		return nil, err
	}
	p.errs, p.accesses = errs, acc
	return p, nil
}

// merge appends another, verified, load phase's outcome to p. It keeps
// only what the metrics read: the served rows would otherwise pile up on
// the heap, and each later segment would run with a larger heap, and so
// less garbage collection, than the one before.
func (p *servePass) merge(o *servePass) {
	for _, op := range o.ops {
		op.runs, op.csv = nil, ""
		p.ops = append(p.ops, op)
	}
	p.errs = append(p.errs, o.errs...)
	p.accesses = append(p.accesses, o.accesses...)
	p.wall += o.wall
	p.host = p.host.add(o.host)
	p.rss = append(p.rss, o.rss...)
}

// log turns a verified pass into per-operation outcomes, of two kinds:
// warm and cold batches.
func (p *servePass) log(l *opLog) {
	for i, op := range p.ops {
		key := "warm"
		if op.cold {
			key = "cold"
		}
		if p.errs[i] != nil {
			l.fail(key, p.errs[i])
			continue
		}
		l.ok(key, op.latency, p.accesses[i])
	}
}

// latencies splits correct batches' latencies (seconds) by warm and
// cold; a failed batch counts as +Inf in its kind's sample.
func (p *servePass) latencies() (hit, miss []float64) {
	for i, op := range p.ops {
		v := op.latency.Seconds()
		if p.errs[i] != nil {
			v = inf
		}
		if op.cold {
			miss = append(miss, v)
		} else {
			hit = append(hit, v)
		}
	}
	return hit, miss
}

// storeCounters sums the workers' store counters.
func storeCounters(f *fabric) resultstore.Stats {
	var s resultstore.Stats
	for _, d := range f.stores {
		if d == nil {
			continue
		}
		st := d.Stats()
		s.Hits += st.Hits
		s.Coalesced += st.Coalesced
		s.Misses += st.Misses
		s.Puts += st.Puts
	}
	return s
}

// serveLayerMetrics derives serve-mix's per-layer metrics from a traced
// pass: spans, wrapper counters and the daemons' job phases.
func serveLayerMetrics(ctx context.Context, f *fabric, p *servePass, since time.Time, before resultstore.Stats) (map[string]float64, error) {
	m := map[string]float64{}
	var spans []span
	for _, s := range f.tr.snapshot() {
		if s.Start >= int64(since.Sub(f.tr.epoch)) {
			spans = append(spans, s)
		}
	}
	self := selfTimes(spans)
	durs := byName(spans)
	p50ms := func(name string) float64 { return median(durs[name]) / 1e6 }

	// resultstore: the wrapper's calls, and store counters over the pass.
	var calls, computed int
	var selfMs []float64
	for _, s := range f.stores {
		s.mu.Lock()
		calls += s.calls
		computed += s.computed
		selfMs = append(selfMs, s.selfMs...)
		s.mu.Unlock()
	}
	after := storeCounters(f)
	m["resultstore.hit_ratio"] = ratio(float64(calls-computed), float64(calls))
	m["resultstore.self_ms_p50"] = median(selfMs)
	m["resultstore.puts"] = float64(after.Puts - before.Puts)
	m["resultstore.coalesced"] = float64(after.Coalesced - before.Coalesced)
	m["resultstore.compute_s"] = float64(self["resultstore.compute"]) / 1e9

	// service and fabric: job phases from every daemon.
	var queueWait, execMs, storeMs, rtt []float64
	workerRuns := make([]float64, len(f.workers))
	for wi, d := range f.workers {
		jobs, err := client.New(d.url).Jobs(ctx)
		if err != nil {
			return nil, err
		}
		for _, j := range jobs {
			if j.Created.Before(since) {
				continue
			}
			queueWait = append(queueWait, j.Phases["queue_wait"]*1e3)
			storeMs = append(storeMs, j.Phases["store"]*1e3)
			if e := j.Phases["exec"]; e > 0 {
				execMs = append(execMs, e*1e3)
			}
		}
		workerRuns[wi] = float64(d.calls.runs.Load())
	}
	jobs, err := client.New(f.coord.url).Jobs(ctx)
	if err != nil {
		return nil, err
	}
	for _, j := range jobs {
		if j.Created.Before(since) || j.RunsTotal == 0 {
			continue
		}
		rtt = append(rtt, j.Phases["fabric_rtt"]*1e3/float64(j.RunsTotal))
	}
	m["service.queue_wait_ms_p50"] = median(queueWait)
	m["service.exec_ms_p50"] = median(execMs)
	m["service.store_ms_p50"] = median(storeMs)
	m["fabric.rtt_ms_p50"] = median(rtt)
	m["service.coord_handler_s"] = float64(self["service.coord_handler"]) / 1e9
	m["service.worker_handler_s"] = float64(self["service.worker_handler"]) / 1e9
	var workerReqs int64
	for _, d := range f.workers {
		workerReqs += d.calls.requests.Load()
	}
	m["fabric.worker_requests"] = float64(workerReqs)
	lo, hi := workerRuns[0], workerRuns[0]
	for _, r := range workerRuns {
		lo, hi = min(lo, r), max(hi, r)
	}
	m["fabric.worker_skew"] = ratio(hi, lo)
	var fresh int
	for _, op := range p.ops {
		if op.cold {
			fresh += len(op.runs)
		}
	}
	m["service.sims_per_fresh_spec"] = ratio(float64(after.Misses-before.Misses), float64(fresh))

	// client: the RoundTripper wrapper's spans and counts.
	batches := float64(len(p.ops))
	m["client.requests_per_batch"] = ratio(float64(f.clients.requests.Load()), batches)
	m["client.submit_ms_p50"] = p50ms("client.submit")
	m["client.wait_ms_p50"] = p50ms("client.wait")
	m["client.result_ms_p50"] = p50ms("client.result")
	m["client.refused"] = float64(f.clients.refused.Load())

	// Client request spans should cover each batch: the rest is the
	// benchmark's own glue between requests.
	var batchNs, glueNs float64
	for _, d := range durs["client.batch"] {
		batchNs += d
	}
	glueNs = float64(self["client.batch"])
	m["trace.accounted_frac"] = ratio(batchNs-glueNs, batchNs)
	m["trace.wall_s"] = p.wall.Seconds()
	return m, nil
}
