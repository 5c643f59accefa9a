package raccd

import (
	"raccd/internal/cpu"
	"raccd/internal/machine"
	"raccd/internal/report"
)

// Machine describes the simulated chip: core count, mesh geometry, per-tile
// L1/LLC/directory sizing, TLB and NCRT defaults. The zero value is the
// paper's 16-core machine (Paper16), so existing code that never mentions a
// Machine keeps simulating exactly the published configuration. Partial
// literals compose with the presets: any field left 0 keeps its Paper16
// per-tile value.
//
// Scaling rule: every core owns one Paper16 tile (private L1 + TLB + NCRT +
// one LLC bank + one directory bank), so LLC and directory capacity grow
// linearly with the core count — the paper's ÷16 capacity scaling run in
// reverse. See docs/MACHINE.md.
type Machine = machine.Machine

// Paper16 returns the paper's machine (Table I ÷16): 16 cores, 4×4 mesh.
// It is what the zero-value Machine means.
func Paper16() Machine { return machine.Paper16() }

// Machine32 returns a 32-core machine on an 8×4 mesh built from Paper16
// tiles.
func Machine32() Machine { return machine.Machine32() }

// Machine64 returns a 64-core machine on an 8×8 mesh built from Paper16
// tiles.
func Machine64() Machine { return machine.Machine64() }

// ScaledMachine returns a machine with the given core count (a positive
// power of two up to 64) on the canonical near-square mesh, built from
// Paper16 tiles. ScaledMachine(16) is Paper16.
func ScaledMachine(cores int) Machine { return machine.Scaled(cores) }

// ParseMachine resolves a machine name: a preset ("paper16", "m32", "m64",
// with "machine32"/"machine64" accepted as aliases) or a bare power-of-two
// core count ("32"). The empty string parses to the zero value (Paper16),
// matching the CLI and service defaults.
func ParseMachine(name string) (Machine, error) { return machine.Parse(name) }

// MachineNames returns the canonical machine preset names.
func MachineNames() []string { return machine.Names() }

// Option mutates a Config under construction; see NewConfig.
type Option func(*Config)

// NewConfig builds a validated-by-default configuration for the given
// system at directory ratio 1:1, then applies the options in order:
//
//	cfg := raccd.NewConfig(raccd.RaCCD,
//	        raccd.WithMachine(raccd.Machine64()),
//	        raccd.WithDirRatio(16),
//	        raccd.WithADR())
//
// NewConfig(sys) with no options equals DefaultConfig(sys, 1).
func NewConfig(system System, opts ...Option) Config {
	cfg := DefaultConfig(system, 1)
	for _, opt := range opts {
		opt(&cfg)
	}
	return cfg
}

// WithMachine selects the simulated chip geometry.
func WithMachine(m Machine) Option { return func(c *Config) { c.Machine = m } }

// WithDirRatio selects the 1:N directory reduction.
func WithDirRatio(n int) Option { return func(c *Config) { c.DirRatio = n } }

// WithADR enables Adaptive Directory Reduction.
func WithADR() Option { return func(c *Config) { c.ADR = true } }

// WithScheduler selects the ready-queue policy ("fifo", "lifo",
// "locality").
func WithScheduler(name string) Option { return func(c *Config) { c.Scheduler = name } }

// WithSMT runs N hardware threads per core (§III-E).
func WithSMT(ways int) Option { return func(c *Config) { c.SMTWays = ways } }

// WithNCRT overrides the per-core NCRT capacity and lookup latency; a 0
// leaves the machine's default in place.
func WithNCRT(entries int, latencyCycles uint64) Option {
	return func(c *Config) {
		c.NCRTEntries = entries
		c.NCRTLatency = latencyCycles
	}
}

// WithWriteThrough selects write-through private caches.
func WithWriteThrough() Option { return func(c *Config) { c.WriteThrough = true } }

// WithContiguity sets the physical page allocator contiguity in [0, 1].
func WithContiguity(f float64) Option { return func(c *Config) { c.Contiguity = f } }

// WithoutValidation disables golden-memory and invariant checking (faster;
// production sweeps that only need metrics).
func WithoutValidation() Option { return func(c *Config) { c.Validate = false } }

// WithCoreModel selects the core-timing model: "simple" (the fixed-cost
// core the paper models — the default) or "ooo" (a 32-entry-window
// out-of-order core that overlaps independent access latencies). A core
// model changes the simulated machine — it is part of the fingerprint
// (cfg/v3) and keys the result cache. See docs/MACHINE.md.
func WithCoreModel(name string) Option { return func(c *Config) { c.Machine.Core = name } }

// WithPrefetch arms a delta-pattern stride prefetcher on every core:
// degree blocks per trained trigger, distance strides ahead (0 → the
// default look-ahead of 4). Prefetches are real accesses against the
// coherence hierarchy, so their directory/sharer/NoC traffic is charged
// under the run's scheme. Composes with any core model.
func WithPrefetch(degree, distance int) Option {
	return func(c *Config) {
		c.Machine.PrefetchDegree = degree
		c.Machine.PrefetchDistance = distance
	}
}

// CoreModelNames returns the recognized core-timing model names.
func CoreModelNames() []string { return cpu.Names() }

// MachineResultSet pairs one machine with the results of a sweep on it.
type MachineResultSet = report.MachineSet

// RunSweepMachines runs the matrix once per machine (Paper16 when the list
// is empty) and returns the result sets in machine order; render a
// cross-machine Fig 2 with Fig2AcrossMachines.
func RunSweepMachines(m Matrix, machines []Machine) ([]MachineResultSet, error) {
	return m.RunMachines(machines)
}

// Fig2AcrossMachines renders the Fig 2 non-coherent-blocks comparison side
// by side for every machine of a RunSweepMachines result.
func Fig2AcrossMachines(sets []MachineResultSet) string {
	return report.Fig2AcrossMachines(sets)
}
