package sim

import (
	"context"
	"strings"
	"sync"
	"testing"

	"raccd/internal/coherence"
	"raccd/internal/machine"
	"raccd/internal/workloads"
)

// TestFingerprintV3AcrossPresets pins the fingerprint schema: v3 strings
// carry the mesh geometry and the core-timing knobs, and every machine
// preset names a distinct machine.
func TestFingerprintV3AcrossPresets(t *testing.T) {
	seen := map[string]string{}
	for _, name := range machine.Names() {
		m, err := machine.Parse(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(coherence.RaCCD, 1)
		cfg.Params = m.Params()
		fp := cfg.Fingerprint()
		if !strings.HasPrefix(fp, "cfg/v3 ") {
			t.Errorf("%s: fingerprint %q is not v3", name, fp)
		}
		for _, key := range []string{" meshw=", " meshh=", " cores=", " core=", " pfdeg=", " pfdist="} {
			if !strings.Contains(fp, key) {
				t.Errorf("%s: fingerprint missing %q: %q", name, key, fp)
			}
		}
		if prev, dup := seen[fp]; dup {
			t.Errorf("presets %s and %s share a fingerprint", prev, name)
		}
		seen[fp] = name
	}
	// Same cores, different mesh → different machine → different key.
	a := DefaultConfig(coherence.RaCCD, 1)
	a.Params.MeshW, a.Params.MeshH = 8, 2
	b := DefaultConfig(coherence.RaCCD, 1)
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("8×2 and 4×4 meshes share a fingerprint")
	}
	// A ring ignores mesh dims, so they are normalized out of its key:
	// identical ring simulations must share one cache entry.
	r1 := DefaultConfig(coherence.RaCCD, 1)
	r1.Params.NoCTopology = "ring"
	r1.Params.MeshW, r1.Params.MeshH = 8, 2
	r2 := DefaultConfig(coherence.RaCCD, 1)
	r2.Params.NoCTopology = "ring"
	if r1.Fingerprint() != r2.Fingerprint() {
		t.Errorf("ring fingerprints differ on ignored mesh dims:\n%s\n%s", r1.Fingerprint(), r2.Fingerprint())
	}
}

// TestCheckRejectsBadGeometry: the machine-facing knobs fail fast with
// descriptive errors instead of panicking deep in construction.
func TestCheckRejectsBadGeometry(t *testing.T) {
	mut := map[string]func(*Config){
		"non-pow2 cores": func(c *Config) { c.Params.Cores = 12 },
		"cores over 64":  func(c *Config) { c.Params.Cores = 128; c.Params.MeshW, c.Params.MeshH = 16, 8 },
		"mesh mismatch":  func(c *Config) { c.Params.MeshW, c.Params.MeshH = 4, 2 },
		"negative mesh":  func(c *Config) { c.Params.MeshW, c.Params.MeshH = -4, -4 },
	}
	for name, f := range mut {
		cfg := DefaultConfig(coherence.RaCCD, 1)
		f(&cfg)
		if err := cfg.Check(); err == nil {
			t.Errorf("%s: Check accepted %+v", name, cfg.Params)
		}
	}
	// A ring does not care about mesh dims.
	ring := DefaultConfig(coherence.RaCCD, 1)
	ring.Params.NoCTopology = "ring"
	ring.Params.MeshW, ring.Params.MeshH = 3, 7
	if err := ring.Check(); err != nil {
		t.Errorf("ring with junk mesh dims rejected: %v", err)
	}
}

// TestCrossPresetDeterminism runs the same workload on each machine preset
// twice concurrently (under -race) and demands bit-identical Results: the
// parametric geometry must not introduce any nondeterminism.
func TestCrossPresetDeterminism(t *testing.T) {
	for _, name := range machine.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			m, err := machine.Parse(name)
			if err != nil {
				t.Fatal(err)
			}
			run := func() Result {
				w, err := workloads.Get("Jacobi", 0.1)
				if err != nil {
					t.Fatal(err)
				}
				cfg := DefaultConfig(coherence.RaCCD, 1)
				cfg.Params = m.Params()
				res, err := Run(w, cfg)
				if err != nil {
					t.Fatal(err)
				}
				res.Hierarchy, res.RunSeconds = nil, 0 // host handle and wall time, not metrics
				return res
			}
			var wg sync.WaitGroup
			results := make([]Result, 4)
			for i := range results {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					results[i] = run()
				}(i)
			}
			wg.Wait()
			for i := 1; i < len(results); i++ {
				if results[i] != results[0] {
					t.Fatalf("run %d diverged:\n%+v\nvs\n%+v", i, results[i], results[0])
				}
			}
		})
	}
}

// TestScalingShrinksDirectoryPressure: more cores at fixed problem size
// must spread the same working set over a 4×-larger directory (lower
// occupancy fraction) and route over a longer mesh (more byte-hops) — two
// basic sanities that the geometry really reached the hierarchy.
func TestScalingShrinksDirectoryPressure(t *testing.T) {
	occ := map[string]float64{}
	hops := map[string]uint64{}
	for _, preset := range []machine.Machine{machine.Paper16(), machine.Machine64()} {
		w, err := workloads.Get("Jacobi", 0.1)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(coherence.FullCoh, 1)
		cfg.Params = preset.Params()
		res, err := Run(w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		occ[preset.Name()] = res.DirOccupancy
		hops[preset.Name()] = res.NoCByteHops
		h := res.Hierarchy.(*coherence.Hierarchy)
		if got := h.Dir().Banks(); got != preset.Cores {
			t.Fatalf("%s: directory has %d banks, want %d", preset.Name(), got, preset.Cores)
		}
	}
	if occ["m64"] >= occ["paper16"] {
		t.Errorf("same working set over 4× directory capacity should lower occupancy: m64=%g paper16=%g",
			occ["m64"], occ["paper16"])
	}
	if hops["m64"] <= hops["paper16"] {
		t.Errorf("8×8 mesh should carry more byte-hops than 4×4: m64=%d paper16=%d",
			hops["m64"], hops["paper16"])
	}
}

// TestRunContextCancel: a cancelled context aborts a single simulation
// promptly with ctx's error — the run-level cancellation satellite.
func TestRunContextCancel(t *testing.T) {
	w, err := workloads.Get("Jacobi", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: the run must not complete
	_, err = RunContext(ctx, w, DefaultConfig(coherence.RaCCD, 1))
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// And a background context still runs to completion.
	res, err := RunContext(context.Background(), w, DefaultConfig(coherence.RaCCD, 1))
	if err != nil || res.Cycles == 0 {
		t.Fatalf("uncancelled run: %v (cycles %d)", err, res.Cycles)
	}
}
