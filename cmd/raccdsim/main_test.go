package main

import (
	"os"
	"path/filepath"

	"context"
	"raccd"
	"strings"
	"testing"
)

func runSim(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errw strings.Builder
	code = run(context.Background(), args, &out, &errw)
	return code, out.String(), errw.String()
}

func TestUnknownSystemRejected(t *testing.T) {
	code, _, stderr := runSim(t, "-system", "mesi")
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(stderr, `unknown system "mesi"`) {
		t.Errorf("stderr missing diagnostic: %q", stderr)
	}
}

func TestUnknownBenchmarkRejected(t *testing.T) {
	code, _, stderr := runSim(t, "-bench", "NoSuch")
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(stderr, "NoSuch") {
		t.Errorf("stderr missing benchmark name: %q", stderr)
	}
}

func TestList(t *testing.T) {
	code, stdout, _ := runSim(t, "-list")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, n := range []string{"Jacobi", "MD5", "Cholesky"} {
		if !strings.Contains(stdout, n) {
			t.Errorf("-list output missing %s", n)
		}
	}
}

// Several benchmarks in one invocation print in the named order, even
// when run in parallel.
func TestMultiBenchOrdered(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	code, stdout, stderr := runSim(t, "-bench", "MD5,Jacobi", "-scale", "0.05", "-jobs", "2", "-ratio", "16")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	md5 := strings.Index(stdout, "benchmark        MD5")
	jac := strings.Index(stdout, "benchmark        Jacobi")
	if md5 < 0 || jac < 0 {
		t.Fatalf("missing result blocks:\n%s", stdout)
	}
	if md5 > jac {
		t.Fatal("results printed out of submission order")
	}
}

// -synth runs a seeded synthetic workload; -trace replays an RTF file
// produced by raccdtrace/WriteTrace. Both print like native benchmarks.
func TestSynthAndTraceFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	code, stdout, stderr := runSim(t, "-synth", "migratory/width=2/depth=4", "-ratio", "16")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "synth:migratory/width=2/depth=4") {
		t.Fatalf("missing synthetic result block:\n%s", stdout)
	}

	path := filepath.Join(t.TempDir(), "md5.rtf")
	w, err := raccd.NewWorkload("MD5", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := raccd.WriteTrace(f, w); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr = runSim(t, "-trace", path, "-ratio", "16")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "benchmark        MD5") {
		t.Fatalf("replayed trace should report its recorded name:\n%s", stdout)
	}
	if !strings.Contains(stdout, "validation       OK") {
		t.Fatalf("replay must pass golden validation:\n%s", stdout)
	}
}

func TestMissingTraceRejected(t *testing.T) {
	code, _, stderr := runSim(t, "-trace", "/nonexistent.rtf")
	if code != 2 || !strings.Contains(stderr, "nonexistent") {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
}

// Invalid configurations fail fast with exit 2 and a diagnostic, before
// any simulation runs.
func TestInvalidConfigRejectedUpFront(t *testing.T) {
	for _, args := range [][]string{
		{"-ratio", "3"},
		{"-smt", "-1"},
		{"-sched", "random"},
		{"-contiguity", "2.0"},
		{"-adr", "-system", "fullcoh"},
	} {
		code, _, stderr := runSim(t, args...)
		if code != 2 {
			t.Errorf("%v: exit %d, want 2 (stderr %q)", args, code, stderr)
		}
		if stderr == "" {
			t.Errorf("%v: no diagnostic printed", args)
		}
	}
}

// TestUsageErrorsExitTwo: -engine and -shards are not flags (there is
// one execution engine), and a degenerate -scale is rejected before any
// run.
func TestUsageErrorsExitTwo(t *testing.T) {
	for _, args := range [][]string{{"-engine", "seq"}, {"-shards", "2"}, {"-scale", "-1"}} {
		if code, _, _ := runSim(t, args...); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}
