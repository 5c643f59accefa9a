package main

import (
	"fmt"
	"time"

	"raccd/internal/coherence" //raccd:layering-ok the traced pass assembles the hierarchy itself to time each layer; no public surface exposes it
	"raccd/internal/directory" //raccd:layering-ok directory stats are compared exactly against sim.Run in the fidelity test
	"raccd/internal/energy"    //raccd:layering-ok the traced assembly installs the same ADR energy hook sim.Run does, so it does the same work
	"raccd/internal/mem"       //raccd:layering-ok the timing rts.Machine wrapper forwards mem.Addr/mem.Range arguments
	"raccd/internal/rts"       //raccd:layering-ok the traced pass drives rts.NewRuntime over a timing rts.Machine
	"raccd/internal/sim"       //raccd:layering-ok runs are described by sim.Config so traced and untraced passes share one spec
	"raccd/internal/workloads" //raccd:layering-ok workload construction is a traced layer of its own
)

// sampleMask selects which coherence accesses the timing machine clocks:
// one in sampleMask+1, chosen by a xorshift stream so the sample cannot
// alias with the runtime's fixed-stride stack traffic. Clocking every
// access would add two clock reads to a call that costs a few hundred
// nanoseconds.
const sampleMask = 7

// clockOverhead is what an empty timed interval measures: the part of
// the two clock reads that lands inside the interval. It is subtracted
// from every timed call so sampled access time is not inflated by the
// clock itself.
var clockOverhead = func() time.Duration {
	const n = 1 << 16
	var total time.Duration
	for i := 0; i < n; i++ {
		t0 := time.Now()
		total += time.Since(t0)
	}
	return total / n
}()

// timingMachine is an rts.Machine that forwards to a coherence.Hierarchy
// and clocks the calls: every RegisterRegion and InvalidateNC call, and
// a random sample of Access calls (scaled up by the call count).
type timingMachine struct {
	h   *coherence.Hierarchy
	rng uint64

	accessCalls, accessTimed uint64
	accessNs                 int64
	registerCalls            uint64
	registerNs               int64
	invalidateCalls          uint64
	invalidateNs             int64
}

func (m *timingMachine) Access(c int, va mem.Addr, write bool, val uint64) uint64 {
	m.accessCalls++
	m.rng ^= m.rng << 13
	m.rng ^= m.rng >> 7
	m.rng ^= m.rng << 17
	if m.rng&sampleMask != 0 {
		return m.h.Access(c, va, write, val)
	}
	t0 := time.Now()
	lat := m.h.Access(c, va, write, val)
	m.accessNs += int64(time.Since(t0) - clockOverhead)
	m.accessTimed++
	return lat
}

func (m *timingMachine) RegisterRegion(c int, r mem.Range) uint64 {
	t0 := time.Now()
	lat := m.h.RegisterRegion(c, r)
	m.registerNs += int64(time.Since(t0) - clockOverhead)
	m.registerCalls++
	return lat
}

func (m *timingMachine) InvalidateNC(c int) uint64 {
	t0 := time.Now()
	lat := m.h.InvalidateNC(c)
	m.invalidateNs += int64(time.Since(t0) - clockOverhead)
	m.invalidateCalls++
	return lat
}

// accessEstimate scales the sampled access time up to every call.
func (m *timingMachine) accessEstimate() time.Duration {
	if m.accessTimed == 0 {
		return 0
	}
	return time.Duration(float64(m.accessNs) / float64(m.accessTimed) * float64(m.accessCalls))
}

// machineTime is the estimated time spent inside the hierarchy.
func (m *timingMachine) machineTime() time.Duration {
	return m.accessEstimate() + time.Duration(m.registerNs+m.invalidateNs)
}

// tracedResult is what the traced assembly observes of one run: the
// simulated outcome compared against sim.Run, plus the host-side call
// counts the per-layer metrics are built from.
type tracedResult struct {
	Name     string // the row key: workload,system,ratio,adr
	Cycles   uint64
	HStats   coherence.Stats
	RStats   rts.Stats
	DirStats directory.Stats
	ByteHops uint64
	Tasks    int
	Edges    uint64

	AccessCalls, RegisterCalls, InvalidateCalls uint64
	AccessTime, RegisterTime, InvalidateTime    time.Duration

	// machine is the run's hierarchy, as sim.Result.Hierarchy keeps it.
	machine *coherence.Hierarchy
}

// tracedRun reproduces sim.RunContext's assembly — workload, hierarchy
// (with ADR and its energy hook), task graph, runtime, validation —
// with a span around each layer's public calls, all under a "sim.run"
// span that is a child of parent. It supports the configurations the
// benchmark runs: the default core model, no SMT, the seq engine.
func tracedRun(tr *tracer, traceID string, parent int64, name string, scale float64, cfg sim.Config) (tracedResult, error) {
	var out tracedResult
	if cfg.Core != "" || cfg.PrefetchDegree != 0 || cfg.SMTWays > 1 || (cfg.Engine != "" && cfg.Engine != "seq") {
		return out, fmt.Errorf("traced run: unsupported configuration %s", cfg.Fingerprint())
	}
	if err := cfg.Check(); err != nil {
		return out, err
	}
	root := tr.start("sim.run", traceID, parent)
	defer tr.end(root)

	s := tr.start("workloads.get", traceID, root)
	w, err := workloads.Get(name, scale)
	tr.end(s)
	if err != nil {
		return out, err
	}

	if cfg.Params.Cores == 0 {
		cfg.Params = coherence.DefaultParams()
	}
	if cfg.DirRatio == 0 {
		cfg.DirRatio = 1
	}
	params := cfg.Params.WithDirRatio(cfg.DirRatio)

	s = tr.start("sim.construct", traceID, root)
	h := coherence.New(cfg.System, params)
	if cfg.ADR {
		fullDirKB := energy.DirectorySizeKB(cfg.Params.Cores * cfg.Params.DirSetsPerBank * cfg.Params.DirWays)
		llcKB := float64(params.Cores*params.LLCSetsPerBank*params.LLCWays*mem.BlockSize) / 1024
		models := energy.Default(fullDirKB, llcKB)
		h.EnableADR()
		h.EnergyPerDirAccess = func(entries int) float64 {
			return models.Dir.PerAccess(energy.DirectorySizeKB(entries))
		}
	}
	tr.end(s)

	s = tr.start("rts.graph_build", traceID, root)
	g := rts.NewGraph()
	w.Build(g)
	err = g.Validate()
	tr.end(s)
	if err != nil {
		return out, fmt.Errorf("%s: %w", w.Name(), err)
	}

	tm := &timingMachine{h: h, rng: 0x9e3779b97f4a7c15}
	rt := rts.NewRuntime(tm, params.Cores, rts.NewScheduler(cfg.Scheduler))
	if cfg.ComputePerAccess != 0 {
		rt.ComputePerAccess = cfg.ComputePerAccess
	}
	rt.StrictAnnotations = cfg.Validate
	s = tr.start("rts.dispatch", traceID, root)
	cycles := rt.Run(g)
	tr.setInner(s, "coherence.calls", tm.machineTime())
	tr.end(s)

	s = tr.start("sim.check", traceID, root)
	if cfg.Validate {
		if err := h.CheckInvariants(); err != nil {
			tr.end(s)
			return out, fmt.Errorf("%s/%v: invariants: %w", w.Name(), cfg.System, err)
		}
	}
	h.NonCoherentFraction()
	h.DrainAll()
	if cfg.Validate {
		var verr error
		rt.EachGolden(func(b mem.Block, want uint64) {
			if verr == nil {
				if got := h.VirtValue(b.Addr()); got != want {
					verr = fmt.Errorf("%s/%v: block %#x final value %d, want task %d", w.Name(), cfg.System, uint64(b.Addr()), got, want)
				}
			}
		})
		if verr != nil {
			tr.end(s)
			return out, verr
		}
	}
	tr.end(s)

	out = tracedResult{
		Name:            fmt.Sprintf("%s,%v,%d,%v", w.Name(), cfg.System, cfg.DirRatio, cfg.ADR),
		Cycles:          cycles,
		HStats:          h.Stats,
		RStats:          rt.Stats,
		DirStats:        h.Dir().Stats,
		ByteHops:        h.Mesh().Stats.TotalByteHops(),
		Tasks:           g.NumTasks(),
		Edges:           g.NumEdges(),
		AccessCalls:     tm.accessCalls,
		RegisterCalls:   tm.registerCalls,
		InvalidateCalls: tm.invalidateCalls,
		AccessTime:      tm.accessEstimate(),
		RegisterTime:    time.Duration(tm.registerNs),
		InvalidateTime:  time.Duration(tm.invalidateNs),
		machine:         h,
	}
	return out, nil
}
