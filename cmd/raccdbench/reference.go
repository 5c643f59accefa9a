package main

import (
	"context"
	"embed"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"raccd/client"
	"raccd/internal/runner" //raccd:layering-ok recording the reference rows fans runs across the same deterministic pool sweeps use
	"raccd/internal/service/exec"
	"raccd/internal/sim"       //raccd:layering-ok reference rows are sim.Run outputs rendered as report CSV rows
	"raccd/internal/workloads" //raccd:layering-ok reference runs resolve workloads by name like every sweep
)

// The reference rows were recorded with -record from the commit that
// introduced this benchmark. Simulated statistics are deterministic, so
// every pass must reproduce them byte for byte: a changed row is a
// wrong output, counted as a failed operation.
//
//go:embed ref/*.csv
var refFS embed.FS

const csvHeader = "workload,system,ratio,adr,cycles,dir_accesses,llc_hit_ratio,noc_byte_hops,dir_energy,dir_occupancy,nc_fraction,l1_hit_ratio,mem_reads,mem_writes,tasks"

// reference maps a row key (workload,system,ratio,adr) to its row.
type reference map[string]string

func loadReference(workload string) (reference, error) {
	data, err := refFS.ReadFile("ref/" + workload + ".csv")
	if err != nil {
		return nil, err
	}
	return parseReference(string(data))
}

func parseReference(data string) (reference, error) {
	lines := strings.Split(strings.TrimSpace(data), "\n")
	if len(lines) < 2 || lines[0] != csvHeader {
		return nil, fmt.Errorf("reference: missing header or rows")
	}
	ref := reference{}
	for _, row := range lines[1:] {
		ref[rowKey(row)] = row
	}
	return ref, nil
}

// check compares one row with its reference row.
func (r reference) check(row string) error {
	want, ok := r[rowKey(row)]
	if !ok {
		return fmt.Errorf("no reference row for %s", rowKey(row))
	}
	if row != want {
		return fmt.Errorf("row mismatch:\n got  %s\n want %s", row, want)
	}
	return nil
}

// checkTraced compares a traced run's simulated counts with the integer
// columns of its reference row: cycles, directory accesses, NoC
// byte-hops, memory reads and writes, tasks.
func (r reference) checkTraced(t tracedResult) error {
	want, ok := r[t.Name]
	if !ok {
		return fmt.Errorf("no reference row for %s", t.Name)
	}
	got := fmt.Sprintf("%d,%d,%d,%d,%d,%d", t.Cycles, t.DirStats.Accesses, t.ByteHops, t.HStats.MemReads, t.HStats.MemWrites, t.Tasks)
	f := strings.Split(want, ",")
	if w := strings.Join([]string{f[4], f[5], f[7], f[12], f[13], f[14]}, ","); got != w {
		return fmt.Errorf("traced run %s: cycles,dir,hops,reads,writes,tasks %s, reference %s", t.Name, got, w)
	}
	return nil
}

// checkCSV compares every row of a sweep or batch CSV and returns how
// many rows it held and the mismatches.
func (r reference) checkCSV(csv string) (rows int, errs []error) {
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) == 0 || lines[0] != csvHeader {
		return 0, []error{fmt.Errorf("CSV without the report header")}
	}
	for _, row := range lines[1:] {
		rows++
		if err := r.check(row); err != nil {
			errs = append(errs, err)
		}
	}
	return rows, errs
}

// simulate runs one spec through sim.Run.
func simulate(s runSpec) (sim.Result, error) {
	w, err := workloads.Get(s.Workload, s.Scale)
	if err != nil {
		return sim.Result{}, err
	}
	return sim.Run(w, s.Cfg)
}

// simulateRow runs one spec and renders its row.
func simulateRow(s runSpec) (string, error) {
	res, err := simulate(s)
	if err != nil {
		return "", err
	}
	return rowOf(res), nil
}

// serveSpec materializes a served run request exactly as a worker does.
func serveSpec(req client.RunRequest) (runSpec, error) {
	cfg, err := exec.BuildConfig(req, "", 0)
	if err != nil {
		return runSpec{}, err
	}
	return runSpec{Workload: req.Workload, Scale: exec.Scale(req), Cfg: cfg}, nil
}

// recordReferences simulates every run each workload can make and
// writes the rows under dir/ref.
func recordReferences(ctx context.Context, dir string, jobs int) error {
	sets := map[string][]runSpec{
		evalPaper16: evalSpecs(),
		largeM64:    allLargeSpecs(),
	}
	for _, req := range warmSet() {
		s, err := serveSpec(req)
		if err != nil {
			return err
		}
		sets[serveMix] = append(sets[serveMix], s)
	}
	for _, name := range workloadNames {
		specs := sets[name]
		rows := make([]string, len(specs))
		err := runner.Run(ctx, jobs, len(specs),
			func(_ context.Context, i int) (string, error) { return simulateRow(specs[i]) },
			func(i int, row string) { rows[i] = row })
		if err != nil {
			return fmt.Errorf("recording %s: %w", name, err)
		}
		sort.Strings(rows)
		path := filepath.Join(dir, "ref", name+".csv")
		if err := os.WriteFile(path, []byte(csvHeader+"\n"+strings.Join(rows, "\n")+"\n"), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "recorded %d rows to %s\n", len(rows), path)
	}
	return nil
}
