// Package cpu models the core's timing: how long a task body's memory
// accesses and compute occupy the issuing core. The coherence hierarchy
// (internal/coherence) decides each access's latency; a cpu.Model decides
// how much of that latency the core actually waits for.
//
// Three behaviours compose:
//
//   - simple: the classic fixed-cost core — every access charges its full
//     memory latency plus a per-access compute cost, fully serialized.
//     This is the zero value; runs that never name a model get it and
//     reproduce the seed behaviour bit-for-bit.
//   - ooo: a bounded-window out-of-order core. Access latencies overlap:
//     the core keeps issuing past outstanding misses until the 32-entry
//     window fills or a same-block dependence forces a stall, and drains
//     outstanding completions at task boundaries.
//   - prefetch: a delta-pattern stride prefetcher wrapped around either
//     core. It trains on the demand stream and injects real prefetch
//     accesses into the coherence hierarchy, so prefetch-generated
//     directory/sharer/NoC traffic is charged and visible per scheme.
//
// Models are deterministic pure state machines over the access stream:
// given the same sequence of (va, write, latency) calls they charge the
// same cycles and issue the same prefetches. The runtime calls them only
// from its single dispatch loop, in canonical task order, so every run of
// a configuration produces identical metrics.
package cpu

import (
	"fmt"
	"strings"

	"raccd/internal/mem"
)

// Issuer injects one prefetch read into the memory hierarchy on the
// model's core and returns its latency. It is an alias, not a defined
// type, so cpu.Model satisfies interfaces declared in packages that
// cannot import cpu (internal/rts declares its CoreModel seam with the
// underlying func type).
type Issuer = func(va mem.Addr) uint64

// Model is one core's timing model. The runtime brackets every task:
// BeginTask before the body, one Access per demand reference (with the
// hierarchy's latency for it), DrainTask after the body. All methods are
// called from a single goroutine; a Model needs no locking.
type Model interface {
	// Name returns the model's parse name ("simple", "ooo").
	Name() string
	// BeginTask starts a task's execution phase. issue injects prefetch
	// accesses into the hierarchy for the duration of this task; models
	// that never prefetch ignore it.
	BeginTask(issue Issuer)
	// Access charges one demand reference whose memory latency is lat and
	// returns the cycles the core spends on it (stall + compute).
	Access(va mem.Addr, write bool, lat uint64) uint64
	// DrainTask ends the task and returns the cycles needed to complete
	// every outstanding access (task boundaries are synchronization
	// points: the invalidate instruction that follows is blocking).
	DrainTask() uint64
	// Stats returns the model's accumulated counters.
	Stats() Stats
}

// Stats counts what a model did across a run. Prefetch counters are zero
// for models without a prefetcher.
type Stats struct {
	// Accesses is the number of demand references charged.
	Accesses uint64
	// DemandMisses is the number of demand references whose latency
	// reached past the L1 (lat >= the configured MissLatency) and that no
	// prefetch covered.
	DemandMisses uint64
	// PrefetchIssued is the number of prefetch accesses injected into the
	// hierarchy.
	PrefetchIssued uint64
	// PrefetchUseful is the number of demand references that hit on a
	// block a prefetch brought in.
	PrefetchUseful uint64
	// PrefetchLate is the number of demand references to a prefetched
	// block that still missed (the block was evicted or invalidated
	// between prefetch and use — under FullCoh, a remote write is enough).
	PrefetchLate uint64
}

// Add accumulates o into s; sim.RunContext merges per-core models with it.
func (s *Stats) Add(o Stats) {
	s.Accesses += o.Accesses
	s.DemandMisses += o.DemandMisses
	s.PrefetchIssued += o.PrefetchIssued
	s.PrefetchUseful += o.PrefetchUseful
	s.PrefetchLate += o.PrefetchLate
}

// Coverage returns the fraction of would-be demand misses the prefetcher
// covered: Useful / (Useful + Late + DemandMisses). Zero when nothing
// missed.
func (s Stats) Coverage() float64 {
	denom := s.PrefetchUseful + s.PrefetchLate + s.DemandMisses
	if denom == 0 {
		return 0
	}
	return float64(s.PrefetchUseful) / float64(denom)
}

// Config selects and parameterizes a core model for one logical processor.
type Config struct {
	// Model is "simple" (or "") for the fixed-cost core, "ooo" for the
	// out-of-order window.
	Model string
	// ComputePerAccess is the per-access compute cost in cycles; it is
	// also the OoO core's issue bandwidth (one access per
	// ComputePerAccess cycles).
	ComputePerAccess uint64
	// PrefetchDegree is how many blocks each trained prefetch trigger
	// fetches; 0 disables the prefetcher.
	PrefetchDegree int
	// PrefetchDistance is how many strides ahead of the demand stream the
	// prefetcher runs (0 with a positive degree → DefaultPrefetchDistance).
	PrefetchDistance int
	// MissLatency classifies demand references: latency at or above it
	// counts as a miss (reached past the L1) for coverage accounting.
	// Typically coherence.Params.LLCCycles.
	MissLatency uint64
}

// DefaultPrefetchDistance is the prefetch look-ahead used when a degree is
// set without a distance; sim.Config.Fingerprint normalizes the pair the
// same way so "degree 2" and "degree 2, distance 4" name the same machine.
const DefaultPrefetchDistance = 4

// MaxPrefetchDegree and MaxPrefetchDistance bound the knobs: past these
// the prefetcher would outrun the table state it can meaningfully track.
const (
	MaxPrefetchDegree   = 8
	MaxPrefetchDistance = 64
)

// Names returns the model names accepted by Parse.
func Names() []string { return []string{"simple", "ooo"} }

// Parse validates a core-model name ("" means simple).
func Parse(name string) (string, error) {
	s := strings.ToLower(strings.TrimSpace(name))
	switch s {
	case "":
		return "simple", nil
	case "simple", "ooo":
		return s, nil
	}
	return "", fmt.Errorf("cpu: unknown core model %q (want %s)", name, strings.Join(Names(), " or "))
}

// Check reports whether the configuration is realizable.
func (c Config) Check() error {
	if _, err := Parse(c.Model); err != nil {
		return err
	}
	if c.PrefetchDegree < 0 || c.PrefetchDegree > MaxPrefetchDegree {
		return fmt.Errorf("cpu: prefetch degree %d out of range [0, %d]", c.PrefetchDegree, MaxPrefetchDegree)
	}
	if c.PrefetchDistance < 0 || c.PrefetchDistance > MaxPrefetchDistance {
		return fmt.Errorf("cpu: prefetch distance %d out of range [0, %d]", c.PrefetchDistance, MaxPrefetchDistance)
	}
	if c.PrefetchDistance > 0 && c.PrefetchDegree == 0 {
		return fmt.Errorf("cpu: prefetch distance %d without a degree (set -prefetch)", c.PrefetchDistance)
	}
	return nil
}

// New builds the model one logical processor runs under cfg, or nil when
// cfg describes the default core: a nil model tells the runtime to keep
// its classic fixed-cost fast path, which is how the seed behaviour stays
// bit-for-bit identical (and unmeasurably cheap) when no timing model is
// asked for. Each logical processor needs its own instance — models hold
// per-core state.
func New(cfg Config) (Model, error) {
	if err := cfg.Check(); err != nil {
		return nil, err
	}
	name, _ := Parse(cfg.Model)
	if cfg.ComputePerAccess == 0 {
		cfg.ComputePerAccess = 8 // rts.DefaultComputePerAccess; rts cannot be imported here
	}
	var m Model
	switch name {
	case "simple":
		if cfg.PrefetchDegree == 0 {
			return nil, nil
		}
		m = &simpleModel{compute: cfg.ComputePerAccess}
	case "ooo":
		m = newOoO(cfg.ComputePerAccess)
	}
	if cfg.PrefetchDegree > 0 {
		dist := cfg.PrefetchDistance
		if dist == 0 {
			dist = DefaultPrefetchDistance
		}
		miss := cfg.MissLatency
		if miss == 0 {
			miss = 15 // coherence.DefaultParams().LLCCycles
		}
		m = newPrefetcher(m, cfg.PrefetchDegree, dist, miss)
	}
	return m, nil
}
