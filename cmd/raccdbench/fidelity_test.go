package main

import (
	"reflect"
	"testing"

	"raccd/internal/coherence"
	"raccd/internal/workloads"
)

// fidelitySpecs is one spec per workload, ADR included, that the traced
// assembly must simulate exactly like sim.Run.
func fidelitySpecs(t *testing.T) map[string]runSpec {
	t.Helper()
	var adr runSpec
	for _, s := range evalSpecs() {
		if s.Workload == "Kmeans" && s.Cfg.ADR && s.Cfg.System == coherence.RaCCD {
			adr = s
		}
	}
	if !adr.Cfg.ADR {
		t.Fatal("the evaluation matrix has no Kmeans RaCCD+ADR run")
	}
	served, err := serveSpec(serveRequest(coldSeedBase+3, "RaCCD"))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]runSpec{
		evalPaper16: adr,
		largeM64:    largeSpecs(5)[len(largeSpecs(5))-1], // the seeded synth graph under RaCCD
		serveMix:    served,
	}
}

// TestTracedRunMatchesSimRun pins the traced assembly to sim.Run: the
// per-layer numbers only describe the program if the traced pass
// simulates exactly what the timed passes do.
func TestTracedRunMatchesSimRun(t *testing.T) {
	for name, s := range fidelitySpecs(t) {
		t.Run(name, func(t *testing.T) {
			want, err := simulate(s)
			if err != nil {
				t.Fatal(err)
			}
			got, err := tracedRun(newTracer(), "test", 0, s.Workload, s.Scale, s.Cfg)
			if err != nil {
				t.Fatal(err)
			}
			h := want.Hierarchy.(*coherence.Hierarchy)
			if got.Cycles != want.Cycles {
				t.Errorf("Cycles %d, sim.Run %d", got.Cycles, want.Cycles)
			}
			if !reflect.DeepEqual(got.HStats, want.HStats) {
				t.Errorf("HStats differ:\n traced %+v\n sim.Run %+v", got.HStats, want.HStats)
			}
			if !reflect.DeepEqual(got.RStats, want.RStats) {
				t.Errorf("RStats differ:\n traced %+v\n sim.Run %+v", got.RStats, want.RStats)
			}
			if !reflect.DeepEqual(got.DirStats, h.Dir().Stats) {
				t.Errorf("directory stats differ:\n traced %+v\n sim.Run %+v", got.DirStats, h.Dir().Stats)
			}
			if got.ByteHops != want.NoCByteHops || uint64(got.Tasks) != want.TasksRun || got.Edges != want.GraphEdges {
				t.Errorf("hops/tasks/edges %d/%d/%d, sim.Run %d/%d/%d",
					got.ByteHops, got.Tasks, got.Edges, want.NoCByteHops, want.TasksRun, want.GraphEdges)
			}
			if name != serveMix {
				ref, err := loadReference(name)
				if err != nil {
					t.Fatal(err)
				}
				if err := ref.checkTraced(got); err != nil {
					t.Error(err)
				}
			}
			if got.AccessCalls != want.HStats.Accesses {
				t.Errorf("timing machine saw %d accesses, the hierarchy counted %d", got.AccessCalls, want.HStats.Accesses)
			}
		})
	}
}

// TestReferenceRowsMatchThisBuild re-simulates a sample of each
// workload's reference rows.
func TestReferenceRowsMatchThisBuild(t *testing.T) {
	for name, s := range fidelitySpecs(t) {
		ref, err := loadReference(name)
		if err != nil {
			t.Fatal(err)
		}
		if name == serveMix {
			// Cold specs are checked against in-process runs, not the
			// reference; check a warm one instead.
			if s, err = serveSpec(warmSet()[3]); err != nil {
				t.Fatal(err)
			}
		}
		row, err := simulateRow(s)
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.check(row); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestReferencesCoverEveryRun checks that every run a workload can make,
// for any seed, has a reference row.
func TestReferencesCoverEveryRun(t *testing.T) {
	cases := map[string][]runSpec{evalPaper16: evalSpecs(), largeM64: allLargeSpecs()}
	for _, req := range warmSet() {
		s, err := serveSpec(req)
		if err != nil {
			t.Fatal(err)
		}
		cases[serveMix] = append(cases[serveMix], s)
	}
	for name, specs := range cases {
		ref, err := loadReference(name)
		if err != nil {
			t.Fatal(err)
		}
		if len(ref) != len(specs) {
			t.Errorf("%s: %d reference rows for %d runs", name, len(ref), len(specs))
		}
		for _, s := range specs {
			w, err := workloads.Get(s.Workload, s.Scale)
			if err != nil {
				t.Fatal(err)
			}
			key := w.Name() + "," + s.Cfg.System.String()
			found := false
			for k := range ref {
				if len(k) > len(key) && k[:len(key)+1] == key+"," {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("%s: no reference row for %v", name, s)
			}
		}
	}
	if len(evalSpecs()) != 207 {
		t.Errorf("evaluation matrix has %d runs, want 207", len(evalSpecs()))
	}
}
