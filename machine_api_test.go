package raccd_test

import (
	"context"
	"strings"
	"testing"

	"raccd"
)

// TestRunOnPresets runs a workload end to end on every machine preset
// through the public API — the "run" leg of the acceptance criteria.
func TestRunOnPresets(t *testing.T) {
	fingerprints := map[string]string{}
	for _, name := range raccd.MachineNames() {
		m, err := raccd.ParseMachine(name)
		if err != nil {
			t.Fatal(err)
		}
		w, err := raccd.NewWorkload("Jacobi", 0.1)
		if err != nil {
			t.Fatal(err)
		}
		cfg := raccd.NewConfig(raccd.RaCCD, raccd.WithMachine(m))
		res, err := raccd.Run(w, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Cycles == 0 || res.TasksRun == 0 {
			t.Fatalf("%s: empty result %+v", name, res)
		}
		fingerprints[name] = cfg.Fingerprint()
	}
	// Fingerprint v3 distinctness across presets, through the public API.
	seen := map[string]string{}
	for name, fp := range fingerprints {
		if !strings.HasPrefix(fp, "cfg/v3 ") {
			t.Errorf("%s: fingerprint %q is not v3", name, fp)
		}
		if prev, dup := seen[fp]; dup {
			t.Errorf("presets %s and %s share fingerprint %q", prev, name, fp)
		}
		seen[fp] = name
	}
}

// TestZeroMachineCompatibility: a Config that never mentions a Machine
// fingerprints and simulates identically to one that names Paper16
// explicitly — the backward-compatibility contract of the redesign.
func TestZeroMachineCompatibility(t *testing.T) {
	implicit := raccd.DefaultConfig(raccd.RaCCD, 16)
	explicit := implicit
	explicit.Machine = raccd.Paper16()
	if implicit.Fingerprint() != explicit.Fingerprint() {
		t.Fatalf("zero Machine fingerprints differently from Paper16:\n%s\n%s",
			implicit.Fingerprint(), explicit.Fingerprint())
	}
	w, err := raccd.NewWorkload("MD5", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	a, err := raccd.Run(w, implicit)
	if err != nil {
		t.Fatal(err)
	}
	b, err := raccd.Run(w, explicit)
	if err != nil {
		t.Fatal(err)
	}
	// Host artifacts — the hierarchy handle and wall-time measurements —
	// are not part of the simulated value.
	a.Hierarchy, b.Hierarchy = nil, nil
	a.RunSeconds, b.RunSeconds = 0, 0
	if a != b {
		t.Fatalf("implicit and explicit Paper16 runs diverge:\n%+v\n%+v", a, b)
	}
}

// TestOptions: the functional options compose onto NewConfig.
func TestOptions(t *testing.T) {
	cfg := raccd.NewConfig(raccd.RaCCD,
		raccd.WithMachine(raccd.Machine32()),
		raccd.WithDirRatio(16),
		raccd.WithADR(),
		raccd.WithScheduler("lifo"),
		raccd.WithSMT(2),
		raccd.WithNCRT(64, 3),
		raccd.WithContiguity(0.5),
		raccd.WithoutValidation(),
	)
	if cfg.Machine != raccd.Machine32() || cfg.DirRatio != 16 || !cfg.ADR ||
		cfg.Scheduler != "lifo" || cfg.SMTWays != 2 || cfg.NCRTEntries != 64 ||
		cfg.NCRTLatency != 3 || cfg.Contiguity != 0.5 || cfg.Validate {
		t.Fatalf("options not applied: %+v", cfg)
	}
	if err := cfg.Check(); err != nil {
		t.Fatal(err)
	}
	// No options: exactly the classic default.
	if got, want := raccd.NewConfig(raccd.PT), raccd.DefaultConfig(raccd.PT, 1); got != want {
		t.Fatalf("NewConfig(PT) = %+v, want DefaultConfig %+v", got, want)
	}
	// A bad machine is rejected at Check time, not by a panic later.
	bad := raccd.NewConfig(raccd.RaCCD, raccd.WithMachine(raccd.Machine{Cores: 12}))
	if err := bad.Check(); err == nil {
		t.Fatal("Check accepted a 12-core machine")
	}
}

// TestRunContextCancelPublic: the public RunContext aborts on a cancelled
// context.
func TestRunContextCancelPublic(t *testing.T) {
	w, err := raccd.NewWorkload("Jacobi", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := raccd.RunContext(ctx, w, raccd.DefaultConfig(raccd.RaCCD, 1)); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestSweepAcrossMachinesPublic: the cross-machine sweep and its Fig 2
// rendering are reachable from the public API.
func TestSweepAcrossMachinesPublic(t *testing.T) {
	m := raccd.NewSweep(0.05)
	m.Workloads = []string{"MD5"}
	m.Ratios = []int{1}
	m.ADR = false
	m.Jobs = 1
	sets, err := raccd.RunSweepMachines(m, []raccd.Machine{raccd.Paper16(), raccd.Machine64()})
	if err != nil {
		t.Fatal(err)
	}
	out := raccd.Fig2AcrossMachines(sets)
	if !strings.Contains(out, "m64 RaCCD") || !strings.Contains(out, "MD5") {
		t.Fatalf("cross-machine Fig 2:\n%s", out)
	}
}

// TestValidateCoversPTRO: the self-check must exercise all four shipped
// systems; before this fix PTRO had no smoke path.
func TestValidateCoversPTRO(t *testing.T) {
	if err := raccd.Validate(); err != nil {
		t.Fatal(err)
	}
	// PTRO really is runnable standalone (what Validate now covers).
	w, err := raccd.NewWorkload("Jacobi", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := raccd.Run(w, raccd.DefaultConfig(raccd.PTRO, 16)); err != nil {
		t.Fatal(err)
	}
}
