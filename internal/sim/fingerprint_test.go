package sim

import (
	"reflect"
	"strings"
	"testing"

	"raccd/internal/coherence"
	"raccd/internal/machine"
)

// TestFingerprintDistinct enumerates every configuration the evaluation
// sweep matrix can produce — systems × directory ratios × ADR × SMT ×
// scheduler × NCRT latencies — and checks that any two distinct valid
// Configs fingerprint differently.
func TestFingerprintDistinct(t *testing.T) {
	var cfgs []Config
	for _, sys := range []coherence.Mode{coherence.FullCoh, coherence.PT, coherence.PTRO, coherence.RaCCD} {
		for _, ratio := range []int{1, 2, 4, 8, 16, 64, 256} {
			for _, adr := range []bool{false, true} {
				if adr && (sys == coherence.FullCoh || ratio != 1) {
					continue
				}
				for _, smt := range []int{1, 2, 4} {
					for _, sched := range []string{"fifo", "lifo", "locality"} {
						for _, lat := range []uint64{1, 2, 3, 5, 10} {
							cfg := DefaultConfig(sys, ratio)
							cfg.ADR = adr
							cfg.SMTWays = smt
							cfg.Scheduler = sched
							cfg.Params.NCRTLookupCycles = lat
							cfgs = append(cfgs, cfg)
						}
					}
				}
			}
		}
	}
	seen := make(map[string]Config, len(cfgs))
	for _, cfg := range cfgs {
		if err := cfg.Check(); err != nil {
			t.Fatalf("matrix produced invalid config: %v", err)
		}
		fp := cfg.Fingerprint()
		if prev, dup := seen[fp]; dup {
			t.Fatalf("distinct configs share fingerprint %q:\n%+v\n%+v", fp, prev, cfg)
		}
		seen[fp] = cfg
	}
	if len(seen) < 1000 {
		t.Fatalf("matrix too small to be meaningful: %d configs", len(seen))
	}
}

// TestFingerprintCanonical checks that defaults-by-omission and explicit
// defaults name the same machine.
func TestFingerprintCanonical(t *testing.T) {
	base := Config{System: coherence.RaCCD}
	explicit := Config{
		System:           coherence.RaCCD,
		DirRatio:         1,
		Scheduler:        "fifo",
		SMTWays:          1,
		Params:           coherence.DefaultParams(),
		ComputePerAccess: 8,
	}
	if got, want := base.Fingerprint(), explicit.Fingerprint(); got != want {
		t.Errorf("zero-value config fingerprints differently from explicit defaults:\n got %q\nwant %q", got, want)
	}
	// Validate affects error checking only, never the Result.
	v := base
	v.Validate = true
	if v.Fingerprint() != base.Fingerprint() {
		t.Error("Validate must not change the fingerprint")
	}
	// Engine "" and "seq" name the same host strategy, so they share
	// cache entries.
	e := base
	e.Engine = "seq"
	if e.Fingerprint() != base.Fingerprint() {
		t.Error(`Engine "" and "seq" must fingerprint identically`)
	}
	// Stability: the same value twice.
	if base.Fingerprint() != base.Fingerprint() {
		t.Error("fingerprint is not stable")
	}
	// Core "" and "simple" name the same machine.
	s := base
	s.Core = "simple"
	if s.Fingerprint() != base.Fingerprint() {
		t.Error(`Core "" and "simple" must fingerprint identically`)
	}
	// Without a prefetcher the distance is inert, so it normalizes away;
	// with one, an unset distance resolves to the default cpu.New uses.
	d := base
	d.PrefetchDistance = 7 // degree 0: never used by the run
	if d.Fingerprint() != base.Fingerprint() {
		t.Error("PrefetchDistance without a degree must not change the fingerprint")
	}
	p1, p2 := base, base
	p1.PrefetchDegree = 2
	p2.PrefetchDegree, p2.PrefetchDistance = 2, 4 // cpu.DefaultPrefetchDistance
	if p1.Fingerprint() != p2.Fingerprint() {
		t.Error("degree 2 and degree 2/distance 4 (the default) must fingerprint identically")
	}
}

// TestFingerprintSensitive spot-checks that each knob actually changes the
// fingerprint.
func TestFingerprintSensitive(t *testing.T) {
	base := DefaultConfig(coherence.RaCCD, 1)
	mutate := map[string]func(*Config){
		"system":       func(c *Config) { c.System = coherence.PT },
		"dirratio":     func(c *Config) { c.DirRatio = 16 },
		"adr":          func(c *Config) { c.ADR = true },
		"scheduler":    func(c *Config) { c.Scheduler = "lifo" },
		"smt":          func(c *Config) { c.SMTWays = 2 },
		"compute":      func(c *Config) { c.ComputePerAccess = 4 },
		"ncrt-lat":     func(c *Config) { c.Params.NCRTLookupCycles = 5 },
		"ncrt-entries": func(c *Config) { c.Params.NCRTEntries = 64 },
		"writethrough": func(c *Config) { c.Params.WriteThrough = true },
		"contiguity":   func(c *Config) { c.Params.Contiguity = 0.5 },
		"seed":         func(c *Config) { c.Params.Seed = 7 },
		"noc":          func(c *Config) { c.Params.NoCTopology = "ring" },
		"mesh-dims":    func(c *Config) { c.Params.MeshW, c.Params.MeshH = 8, 2 },
		"cores":        func(c *Config) { c.Params = machine.Machine64().Params() },
		"core-model":   func(c *Config) { c.Core = "ooo" },
		"pf-degree":    func(c *Config) { c.PrefetchDegree = 2 },
		"pf-distance":  func(c *Config) { c.PrefetchDegree, c.PrefetchDistance = 2, 8 },
	}
	for name, f := range mutate {
		cfg := base
		f(&cfg)
		if cfg.Fingerprint() == base.Fingerprint() {
			t.Errorf("%s: mutation did not change the fingerprint", name)
		}
	}
}

// TestFingerprintCoversAllFields pins the number of fields in Config and
// coherence.Params. If either struct grows, this test fails as a reminder
// to extend Fingerprint (and bump fingerprintVersion if the canonical
// form changes meaning).
func TestFingerprintCoversAllFields(t *testing.T) {
	if n := reflect.TypeOf(Config{}).NumField(); n != 12 {
		t.Errorf("sim.Config has %d fields, Fingerprint was written for 12 (10 covered + Validate/Engine deliberately excluded) — extend it and update this count", n)
	}
	if n := reflect.TypeOf(coherence.Params{}).NumField(); n != 20 {
		t.Errorf("coherence.Params has %d fields, Fingerprint was written for 20 — extend it and update this count", n)
	}
	// Every key appears exactly once in the rendering.
	fp := DefaultConfig(coherence.RaCCD, 1).Fingerprint()
	for _, key := range []string{"system=", "dirratio=", "adr=", "sched=", "smt=",
		"compute=", "core=", "pfdeg=", "pfdist=",
		"cores=", "meshw=", "meshh=", "l1sets=", "l1ways=",
		"llcsets=", "llcways=", "dirsets=", "dirways=", "dirminsets=",
		"ncrt=", "ncrtlat=", "tlb=",
		"l1hit=", "llccyc=", "memcyc=", "wt=", "contig=", "seed=", "noc="} {
		if strings.Count(fp, " "+key) != 1 {
			t.Errorf("fingerprint %q: key %q appears %d times, want 1", fp, key, strings.Count(fp, " "+key))
		}
	}
}

// TestFingerprintTablesConsistent is the runtime mirror of the raccdvet
// fingerprint analyzer: the coverage tables, the structs and the
// rendered canonical form must agree. The analyzer gives file:line
// diagnostics at vet time; this keeps `go test` self-sufficient on
// hosts that never run raccdvet.
func TestFingerprintTablesConsistent(t *testing.T) {
	fields := map[string]bool{}
	cfg := reflect.TypeOf(Config{})
	for i := 0; i < cfg.NumField(); i++ {
		if cfg.Field(i).Name == "Params" {
			continue // flattened below
		}
		fields[cfg.Field(i).Name] = true
	}
	params := reflect.TypeOf(coherence.Params{})
	for i := 0; i < params.NumField(); i++ {
		fields[params.Field(i).Name] = true
	}
	for name := range fields {
		_, keyed := fingerprintFields[name]
		_, excluded := fingerprintExcluded[name]
		if keyed == excluded {
			t.Errorf("field %s: keyed=%v excluded=%v, want exactly one", name, keyed, excluded)
		}
	}
	for name := range fingerprintFields {
		if !fields[name] {
			t.Errorf("fingerprintFields has stale row %q: no such Config/Params field", name)
		}
	}
	for name := range fingerprintExcluded {
		if !fields[name] {
			t.Errorf("fingerprintExcluded has stale row %q: no such Config/Params field", name)
		}
	}
	fp := DefaultConfig(coherence.RaCCD, 1).Fingerprint()
	for field, key := range fingerprintFields {
		if got := strings.Count(fp, " "+key+"="); got != 1 {
			t.Errorf("field %s: key %q rendered %d times in %q, want 1", field, key, got, fp)
		}
	}
}
