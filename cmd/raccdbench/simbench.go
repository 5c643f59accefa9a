package main

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"raccd/internal/coherence" //raccd:layering-ok OnSimulated reports the run's coherence mode
	"raccd/internal/rts"       //raccd:layering-ok set-up builds each task graph once, as the runs will
	"raccd/internal/runner"    //raccd:layering-ok the traced evaluation pass runs on the same pool report.Matrix uses
	"raccd/internal/sim"       //raccd:layering-ok large-m64 calls sim.Run one run at a time, bypassing the runner
	"raccd/internal/workloads" //raccd:layering-ok set-up builds each task graph once, as the runs will
)

// simBench drives eval-paper16 and large-m64: fixed run lists whose
// rows are checked against recorded references.
type simBench struct {
	name  string
	jobs  int
	specs []runSpec
	ref   reference
	// paperErr is paper_err_pp of the last evaluation pass.
	paperErr float64
}

// opLog collects per-operation outcomes across passes. Operations are
// keyed by their kind: a simulation workload repeats the same runs every
// pass and each run is a kind (a served batch is warm or cold). On the
// simulation workloads an operation's latency is its kind's
// typicalTime, so the percentiles compare runs rather than moments of
// the host. A failed operation keeps +Inf.
type opLog struct {
	mu        sync.Mutex
	byKey     map[string][]float64 // seconds; +Inf for a failed operation
	attempted int
	failed    int
	accesses  uint64
	busy      time.Duration // successful operations' total latency
	errs      []error
}

func (l *opLog) add(key string, v float64) {
	if l.byKey == nil {
		l.byKey = map[string][]float64{}
	}
	l.byKey[key] = append(l.byKey[key], v)
	l.attempted++
}

func (l *opLog) ok(key string, d time.Duration, accesses uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.add(key, d.Seconds())
	l.accesses += accesses
	l.busy += d
}

// fail counts a failed operation; it misses every latency limit.
func (l *opLog) fail(key string, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.add(key, inf)
	l.failed++
	if len(l.errs) < 5 {
		l.errs = append(l.errs, err)
	}
}

// busyTime is the time the successful operations took so far.
func (l *opLog) busyTime() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.busy
}

// typicalTime is the upper quartile of the successful repetitions xs of
// one run, or +Inf if none succeeded. On a shared host, contention from
// the other tenants is the usual state: a run is fast only in the brief
// moments they leave the host alone, and those come and go from one
// minute to the next. The upper quartile reads the run at the usual
// state and leaves out its slowest quarter, the rare stalls.
func typicalTime(xs []float64) float64 {
	var ok []float64
	for _, x := range xs {
		if !math.IsInf(x, 1) {
			ok = append(ok, x)
		}
	}
	if len(ok) == 0 {
		return inf
	}
	return quantile(sortedCopy(ok), 0.75)
}

// typicalTotal sums the typicalTime of every kind with a successful
// operation.
func (l *opLog) typicalTotal() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	var sum float64
	for _, xs := range l.byKey {
		if m := typicalTime(xs); !math.IsInf(m, 1) {
			sum += m
		}
	}
	return time.Duration(sum * float64(time.Second))
}

// latencies returns one latency per operation: its kind's typicalTime,
// or +Inf if it failed.
func (l *opLog) latencies() []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]float64, 0, l.attempted)
	for _, xs := range l.byKey {
		m := typicalTime(xs)
		for _, x := range xs {
			if math.IsInf(x, 1) {
				out = append(out, x)
			} else {
				out = append(out, m)
			}
		}
	}
	return out
}

func newSimBench(name string, seed int64, jobs int) (*simBench, error) {
	b := &simBench{name: name, jobs: jobs}
	switch name {
	case evalPaper16:
		b.specs = evalSpecs()
	case largeM64:
		b.specs = largeSpecs(seed)
	default:
		return nil, fmt.Errorf("not a simulation workload: %s", name)
	}
	return b, nil
}

// setup is what precedes the first run: load the reference rows, check
// every configuration, resolve every workload identity and build each
// distinct task graph once (which also warms the code paths).
func (b *simBench) setup() error {
	ref, err := loadReference(b.name)
	if err != nil {
		return err
	}
	b.ref = ref
	if err := resolveAll(b.specs); err != nil {
		return err
	}
	built := map[string]bool{}
	for _, s := range b.specs {
		key := fmt.Sprintf("%s@%g", s.Workload, s.Scale)
		if built[key] {
			continue
		}
		built[key] = true
		w, err := workloads.Get(s.Workload, s.Scale)
		if err != nil {
			return err
		}
		g := rts.NewGraph()
		w.Build(g)
		if err := g.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// workers is how many runs a pass runs at once: the evaluation uses the
// sweep's pool, large-m64 runs one at a time.
func (b *simBench) workers() int {
	if b.name == evalPaper16 {
		return b.jobs
	}
	return 1
}

// pass runs the whole run list once, untraced, logging each run.
func (b *simBench) pass(ctx context.Context, log *opLog) error {
	if b.name == evalPaper16 {
		return b.evalPass(ctx, log)
	}
	for _, s := range b.specs {
		if err := ctx.Err(); err != nil {
			return err
		}
		key := s.String()
		t0 := time.Now()
		w, err := workloads.Get(s.Workload, s.Scale)
		if err != nil {
			log.fail(key, err)
			continue
		}
		res, err := sim.RunContext(ctx, w, s.Cfg)
		d := time.Since(t0)
		if err != nil {
			log.fail(key, fmt.Errorf("%v: %w", s, err))
			continue
		}
		if err := b.ref.check(rowOf(res)); err != nil {
			log.fail(key, fmt.Errorf("%v: %w", s, err))
			continue
		}
		log.ok(key, d, res.HStats.Accesses)
	}
	return nil
}

// evalPass runs the evaluation through the public sweep API and checks
// the sweep's CSV row by row.
func (b *simBench) evalPass(ctx context.Context, log *opLog) error {
	type timing struct {
		d        time.Duration
		accesses uint64
	}
	m := evalMatrix(b.jobs)
	var mu sync.Mutex
	timings := map[string]timing{}
	m.OnSimulated = func(_ string, _ coherence.Mode, elapsed time.Duration, res sim.Result) {
		key := fmt.Sprintf("%s,%v,%d,%v", res.Workload, res.System, res.DirRatio, res.ADR)
		mu.Lock()
		timings[key] = timing{elapsed, res.HStats.Accesses}
		mu.Unlock()
	}
	set, err := m.RunContext(ctx)
	if err != nil {
		if ctx.Err() != nil {
			return err
		}
		for i := len(timings); i < len(b.specs); i++ {
			log.fail(fmt.Sprintf("failed sweep run %d", i), err)
		}
		return nil
	}
	b.paperErr = paperErrPP(set)
	lines := strings.Split(strings.TrimSpace(set.CSV()), "\n")
	if len(lines)-1 != len(b.specs) {
		log.fail("row count", fmt.Errorf("sweep CSV has %d rows, want %d", len(lines)-1, len(b.specs)))
	}
	for _, row := range lines[1:] {
		key := rowKey(row)
		t, ok := timings[key]
		switch err := b.ref.check(row); {
		case !ok:
			log.fail(key, fmt.Errorf("%s: no simulation reported", key))
		case err != nil:
			log.fail(key, err)
		default:
			log.ok(key, t.d, t.accesses)
		}
	}
	return nil
}

// tracedPass runs the run list through the traced assembly: one
// "runner.worker" span per worker slot covering the pass, each run's
// spans under the slot that ran it. Each run's simulated counts are
// checked against its reference row.
func (b *simBench) tracedPass(ctx context.Context, tr *tracer, passID int, log *opLog) (*tracedAgg, error) {
	agg := &tracedAgg{}
	workers := b.workers()
	passSpan := tr.start("pass", fmt.Sprintf("%s/pass%d", b.name, passID), 0)
	slots := make(chan int64, workers)
	for i := 0; i < workers; i++ {
		slots <- tr.start("runner.worker", fmt.Sprintf("%s/pass%d/worker%d", b.name, passID, i), passSpan)
	}
	// A sweep's result set keeps every run's machine alive until the
	// sweep returns; keep them the same way, so the traced pass's heap
	// behaves like the untraced one.
	var keep []*coherence.Hierarchy
	before := readHost()
	t0 := time.Now()
	err := runner.Run(ctx, workers, len(b.specs),
		func(_ context.Context, i int) (tracedResult, error) {
			slot := <-slots
			defer func() { slots <- slot }()
			s := b.specs[i]
			traceID := fmt.Sprintf("%s/pass%d/run%d", b.name, passID, i)
			return tracedRun(tr, traceID, slot, s.Workload, s.Scale, s.Cfg)
		},
		func(i int, r tracedResult) {
			key := fmt.Sprintf("traced/%v", b.specs[i])
			if err := b.ref.checkTraced(r); err != nil {
				log.fail(key, fmt.Errorf("%v: %w", b.specs[i], err))
			} else {
				log.ok(key, 0, r.HStats.Accesses)
			}
			agg.add(r)
			if b.name == evalPaper16 {
				keep = append(keep, r.machine)
			}
		})
	agg.wall = time.Since(t0)
	agg.host = readHost().sub(before)
	agg.workers = workers
	close(slots)
	for slot := range slots {
		tr.end(slot)
	}
	tr.end(passSpan)
	return agg, err
}

// tracedAgg sums what the traced assembly observed over a pass.
type tracedAgg struct {
	runs    int
	workers int
	wall    time.Duration
	host    hostCounters
	tasks   int
	edges   uint64
	h       coherence.Stats
	dirAcc  uint64
	hops    uint64

	accessCalls, registerCalls, invalidateCalls uint64
	accessTime, registerTime, invalidateTime    time.Duration
}

// add folds one traced run into the pass's totals.
func (a *tracedAgg) add(r tracedResult) {
	a.merge(tracedAgg{
		runs: 1, tasks: r.Tasks, edges: r.Edges, h: r.HStats,
		dirAcc: r.DirStats.Accesses, hops: r.ByteHops,
		accessCalls: r.AccessCalls, registerCalls: r.RegisterCalls, invalidateCalls: r.InvalidateCalls,
		accessTime: r.AccessTime, registerTime: r.RegisterTime, invalidateTime: r.InvalidateTime,
	})
}

// merge sums o's counts into a (wall time and workers excepted).
func (a *tracedAgg) merge(o tracedAgg) {
	a.runs += o.runs
	a.tasks += o.tasks
	a.edges += o.edges
	a.dirAcc += o.dirAcc
	a.hops += o.hops
	a.host.allocObjects += o.host.allocObjects
	a.host.gcCPU += o.host.gcCPU
	a.host.totalCPU += o.host.totalCPU
	a.h.L1Hits += o.h.L1Hits
	a.h.L1Misses += o.h.L1Misses
	a.h.LLCDemand += o.h.LLCDemand
	a.h.LLCDemandHits += o.h.LLCDemandHits
	a.h.CohFills += o.h.CohFills
	a.h.NCFills += o.h.NCFills
	a.h.Upgrades += o.h.Upgrades
	a.h.RecoveryFlushes += o.h.RecoveryFlushes
	a.h.DirVictimRecalls += o.h.DirVictimRecalls
	a.h.MemReads += o.h.MemReads
	a.h.MemWrites += o.h.MemWrites
	a.accessCalls += o.accessCalls
	a.registerCalls += o.registerCalls
	a.invalidateCalls += o.invalidateCalls
	a.accessTime += o.accessTime
	a.registerTime += o.registerTime
	a.invalidateTime += o.invalidateTime
}

// simLayerMetrics derives the per-layer metrics of a sim workload from
// its traced passes. Times and counts are per pass: a pass is the
// workload's whole run list, so workloads compare at their unit of work.
func simLayerMetrics(spans []span, aggs []*tracedAgg) map[string]float64 {
	var a tracedAgg
	var wall, slotWall time.Duration
	for _, p := range aggs {
		a.merge(*p)
		wall += p.wall
		slotWall += p.wall * time.Duration(p.workers)
	}
	passes := float64(len(aggs))
	self := selfTimes(spans)
	perPass := func(x float64) float64 { return x / passes }
	sec := func(name string) float64 { return perPass(float64(self[name]) / 1e9) }
	m := map[string]float64{}
	m["workloads.get_s"] = sec("workloads.get")
	m["rts.graph_build_s"] = sec("rts.graph_build")
	m["rts.graph_build_us_per_task"] = ratio(float64(self["rts.graph_build"])/1e3, float64(a.tasks))
	m["rts.dispatch_self_s"] = sec("rts.dispatch")
	m["rts.tasks"] = perPass(float64(a.tasks))
	m["rts.edges"] = perPass(float64(a.edges))
	m["sim.construct_ms_per_run"] = ratio(float64(self["sim.construct"])/1e6, float64(a.runs))
	m["sim.check_s"] = sec("sim.check")
	m["sim.runs"] = perPass(float64(a.runs))
	m["host.gc_cpu_frac"] = ratio(a.host.gcCPU, a.host.totalCPU)
	m["host.alloc_objects_per_run"] = ratio(float64(a.host.allocObjects), float64(a.runs))
	m["coherence.access_s"] = perPass(a.accessTime.Seconds())
	m["coherence.access_calls"] = perPass(float64(a.accessCalls))
	m["coherence.ns_per_access"] = ratio(float64(a.accessTime), float64(a.accessCalls))
	m["coherence.register_s"] = perPass(a.registerTime.Seconds())
	m["coherence.register_calls"] = perPass(float64(a.registerCalls))
	m["coherence.invalidate_s"] = perPass(a.invalidateTime.Seconds())
	m["coherence.invalidate_calls"] = perPass(float64(a.invalidateCalls))
	m["coherence.l1_hit_ratio"] = ratio(float64(a.h.L1Hits), float64(a.h.L1Hits+a.h.L1Misses))
	m["coherence.coh_fills"] = perPass(float64(a.h.CohFills))
	m["coherence.nc_fills"] = perPass(float64(a.h.NCFills))
	m["coherence.upgrades"] = perPass(float64(a.h.Upgrades))
	m["coherence.recovery_flushes"] = perPass(float64(a.h.RecoveryFlushes))
	m["coherence.llc_hit_ratio"] = ratio(float64(a.h.LLCDemandHits), float64(a.h.LLCDemand))
	m["directory.accesses"] = perPass(float64(a.dirAcc))
	m["directory.victim_recalls"] = perPass(float64(a.h.DirVictimRecalls))
	m["noc.byte_hops"] = perPass(float64(a.hops))
	m["mem.reads"] = perPass(float64(a.h.MemReads))
	m["mem.writes"] = perPass(float64(a.h.MemWrites))

	// The runner layer: worker slots busy in runs vs the pass's wall, and
	// each slot's idle time after its last run, once the queue ran dry.
	var runNs, tailNs int64
	lastEnd := map[int64]int64{} // worker slot span → end of its last run
	for _, s := range spans {
		if s.Name == "sim.run" {
			runNs += s.dur()
			lastEnd[s.Parent] = max(lastEnd[s.Parent], s.End)
		}
	}
	for _, s := range spans {
		if e, ok := lastEnd[s.ID]; ok && s.Name == "runner.worker" {
			tailNs += s.End - e
		}
	}
	m["runner.busy_frac"] = ratio(float64(runNs), float64(slotWall))
	m["runner.tail_s"] = perPass(float64(tailNs) / 1e9)

	// Layer self times must account for the traced wall: everything but
	// the benchmark's own glue (the "sim.run" and "pass" spans' self
	// time) is a layer.
	var layers float64
	for name, ns := range self {
		if name != "sim.run" && name != "pass" {
			layers += float64(ns)
		}
	}
	m["trace.accounted_frac"] = ratio(layers, float64(slotWall))
	m["trace.wall_s"] = perPass(wall.Seconds())
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
