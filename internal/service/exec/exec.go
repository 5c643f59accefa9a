// Package exec is the execution layer of the simulation service: it
// materializes validated wire requests into sim.Configs and runs them —
// through the result store for global dedupe, through internal/runner
// for sweep fan-out — returning exactly the CSV internal/report
// produces. It sits below the transport (HTTP handlers, the fabric
// Backend seam) and above the store; it owns the daemon's execution
// counters (per-scheme run-latency histograms, prefetch totals) so the
// stats and /metrics endpoints are a pure read.
package exec

import (
	"context"
	"fmt"
	"time"

	"raccd/client"
	"raccd/internal/coherence"
	"raccd/internal/machine"
	"raccd/internal/obs"
	"raccd/internal/report"
	"raccd/internal/resultstore"
	"raccd/internal/service/store"
	"raccd/internal/sim"
	"raccd/internal/workloads"
)

// Executor runs validated requests. Create with New; safe for
// concurrent use.
type Executor struct {
	st store.Store
	// simJobs is the per-sweep simulation parallelism (runner pool
	// width); 0 selects one worker per CPU.
	simJobs int
	metrics Metrics
}

// New returns an executor over st fanning sweeps across simJobs workers.
func New(st store.Store, simJobs int) *Executor {
	return &Executor{st: st, simJobs: simJobs}
}

// Store returns the executor's result store.
func (e *Executor) Store() store.Store { return e.st }

// Metrics returns the executor's counters for snapshotting.
func (e *Executor) Metrics() *Metrics { return &e.metrics }

// Scale resolves a request's problem scale (0 means 1.0).
func Scale(req client.RunRequest) float64 {
	if req.Scale == 0 {
		return 1.0
	}
	return req.Scale
}

// BuildConfig materializes a run request as a checked sim.Config. The
// two trailing parameters are ignored; they stay because
// cmd/raccdbench/reference.go calls BuildConfig(req, "", 0).
func BuildConfig(r client.RunRequest, _ string, _ int) (sim.Config, error) {
	mode, err := coherence.ParseMode(r.System)
	if err != nil {
		return sim.Config{}, err
	}
	mach, err := machine.Parse(r.Machine)
	if err != nil {
		return sim.Config{}, err
	}
	ratio := r.DirRatio
	if ratio == 0 {
		ratio = 1
	}
	cfg := sim.DefaultConfig(mode, ratio)
	cfg.Params = mach.Params()
	cfg.ADR = r.ADR
	cfg.Scheduler = r.Scheduler
	cfg.SMTWays = r.SMTWays
	if r.NCRTLatency != 0 {
		cfg.Params.NCRTLookupCycles = r.NCRTLatency
	}
	if r.NCRTEntries != 0 {
		cfg.Params.NCRTEntries = r.NCRTEntries
	}
	cfg.Params.WriteThrough = r.WriteThrough
	if r.Contiguity != 0 {
		if r.Contiguity < 0 || r.Contiguity > 1 {
			return sim.Config{}, fmt.Errorf("contiguity %g out of range [0, 1]", r.Contiguity)
		}
		cfg.Params.Contiguity = r.Contiguity
	}
	cfg.Validate = r.Validate == nil || *r.Validate
	cfg.Core = mach.Core
	cfg.PrefetchDegree = mach.PrefetchDegree
	cfg.PrefetchDistance = mach.PrefetchDistance
	if r.Core != "" {
		cfg.Core = r.Core
	}
	if r.PrefetchDegree != 0 {
		cfg.PrefetchDegree = r.PrefetchDegree
	}
	if r.PrefetchDistance != 0 {
		cfg.PrefetchDistance = r.PrefetchDistance
	}
	return cfg, cfg.Check()
}

// BuildMatrix materializes a sweep request as a checked report.Matrix.
// Execution wiring (cache, parallelism, hooks) is left to Sweep, so the
// matrix is safe to expand (Keys, NumRuns) without side effects.
func BuildMatrix(r client.SweepRequest) (report.Matrix, error) {
	m := report.DefaultMatrix()
	m.ADR = r.ADR
	mach, err := machine.Parse(r.Machine)
	if err != nil {
		return report.Matrix{}, err
	}
	m.Machine = mach
	if len(r.Workloads) > 0 {
		m.Workloads = r.Workloads
	}
	if len(r.Systems) > 0 {
		m.Systems = m.Systems[:0]
		for _, name := range r.Systems {
			mode, err := coherence.ParseMode(name)
			if err != nil {
				return report.Matrix{}, err
			}
			m.Systems = append(m.Systems, mode)
		}
	}
	if len(r.Ratios) > 0 {
		m.Ratios = r.Ratios
	}
	if r.Scale != 0 {
		m.Scale = r.Scale
	}
	m.Validate = r.Validate == nil || *r.Validate
	m.Core = r.Core
	m.PrefetchDegree = r.PrefetchDegree
	m.PrefetchDistance = r.PrefetchDistance
	// Validate the matrix up front: every workload must resolve and every
	// (system, ratio) cell must describe a runnable machine.
	for _, name := range m.Workloads {
		if _, err := workloads.Identity(name, m.Scale); err != nil {
			return report.Matrix{}, err
		}
	}
	for _, sys := range m.Systems {
		for _, ratio := range m.Ratios {
			cfg := sim.DefaultConfig(sys, ratio)
			cfg.Params = mach.Params()
			cfg.Core = m.Core
			cfg.PrefetchDegree = m.PrefetchDegree
			cfg.PrefetchDistance = m.PrefetchDistance
			if err := cfg.Check(); err != nil {
				return report.Matrix{}, err
			}
		}
	}
	return m, nil
}

// Run executes one simulation through the result store: the run is
// keyed by (cfg.Fingerprint, identity), recalled when cached, computed
// at most once per key otherwise (the store single-flights concurrent
// identical calls). It returns the run's report CSV (header + one row)
// and whether the result came from the cache. ctx aborts an in-flight
// simulation at its next task dispatch.
func (e *Executor) Run(ctx context.Context, cfg sim.Config, workload string, scale float64, identity string) (csv string, res sim.Result, cached bool, err error) {
	ph := obs.PhasesFrom(ctx)
	key := resultstore.KeyOf(cfg.Fingerprint(), identity)
	// total−simWall is the store phase: get/put IO, hashing, and — for a
	// coalesced caller — waiting on another goroutine's identical run.
	start := time.Now()
	var simWall time.Duration
	res, cached, err = e.st.GetOrCompute(key, func() (sim.Result, error) {
		// Cancellation between queueing and compute: don't start a
		// simulation nobody will wait for.
		if err := ctx.Err(); err != nil {
			return sim.Result{}, err
		}
		buildStart := time.Now()
		w, err := workloads.Get(workload, scale)
		if err != nil {
			return sim.Result{}, err
		}
		ph.Add(obs.PhaseBuild, time.Since(buildStart))
		simStart := time.Now()
		res, err := sim.RunContext(ctx, w, cfg)
		simWall = time.Since(simStart)
		if err == nil {
			e.metrics.Observe("seq", cfg.System, simWall, res)
		}
		return res, err
	})
	ph.Add(obs.PhaseExec, simWall)
	ph.Add(obs.PhaseStore, time.Since(start)-simWall)
	if err != nil {
		return "", sim.Result{}, false, err
	}
	obs.Log(ctx).Debug("run complete",
		"workload", workload, "system", cfg.System.String(), "ratio", cfg.DirRatio,
		"cycles", res.Cycles, "cached", cached,
		"sim_ms", simWall.Milliseconds())
	return report.NewSet([]sim.Result{res}).CSV(), res, cached, nil
}

// Sweep executes a whole matrix through the store and the runner pool,
// returning the result set. The matrix's cache, parallelism and
// simulation hook are wired here so every sweep a server executes feeds
// the same counters.
func (e *Executor) Sweep(ctx context.Context, m report.Matrix, progress func(string)) (*report.Set, error) {
	m.Jobs = e.simJobs
	m.Cache = e.st
	m.Progress = progress
	m.OnSimulated = e.metrics.Observe
	return m.RunContext(ctx)
}

// RunLine formats the per-run progress line of a single-run job — the
// same shape on a local daemon and forwarded through the fabric.
func RunLine(res sim.Result, cached bool) string {
	tag := ""
	if cached {
		tag = " (cached)"
	}
	return fmt.Sprintf("%-9s %-8v 1:%-3d cycles=%d%s", res.Workload, res.System, res.DirRatio, res.Cycles, tag)
}
