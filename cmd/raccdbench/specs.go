package main

import (
	"fmt"
	"math/rand"
	"strings"

	"raccd/client"
	"raccd/internal/coherence" //raccd:layering-ok run specs name coherence modes directly; the public alias is the same type
	"raccd/internal/machine"   //raccd:layering-ok large-m64 pins the m64 preset's parameters into each sim.Config
	"raccd/internal/report"
	"raccd/internal/sim"       //raccd:layering-ok runs are described by sim.Config so traced and untraced passes share one spec
	"raccd/internal/workloads" //raccd:layering-ok set-up resolves every workload identity before timing
)

// The benchmark's workloads, by the names BENCHMARK.json and later
// changes refer to.
const (
	evalPaper16 = "eval-paper16"
	largeM64    = "large-m64"
	serveMix    = "serve-mix"
)

var workloadNames = []string{evalPaper16, largeM64, serveMix}

// runSpec is one simulation: a workload name at a scale under a config.
type runSpec struct {
	Workload string
	Scale    float64
	Cfg      sim.Config
}

func (s runSpec) String() string {
	adr := ""
	if s.Cfg.ADR {
		adr = "+ADR"
	}
	return fmt.Sprintf("%s@%g/%v%s 1:%d", s.Workload, s.Scale, s.Cfg.System, adr, s.Cfg.DirRatio)
}

// evalMatrix is the paper's full evaluation, exactly as `sweep` runs
// it: report.DefaultMatrix at scale 1 with validation on.
func evalMatrix(jobs int) report.Matrix {
	m := report.DefaultMatrix()
	m.Jobs = jobs
	return m
}

// evalSpecs expands the evaluation matrix into its 207 runs, configured
// the way report.Matrix configures them.
func evalSpecs() []runSpec {
	m := evalMatrix(1)
	var out []runSpec
	for _, k := range m.Keys() {
		cfg := sim.DefaultConfig(k.System, k.Ratio)
		cfg.Params = m.Machine.Params()
		cfg.Validate = m.Validate
		cfg.ADR = k.ADR
		out = append(out, runSpec{Workload: k.Workload, Scale: m.Scale, Cfg: cfg})
	}
	return out
}

// largeSynthPool is how many seeded synth:mixed graphs large-m64 draws
// from; every one has recorded reference rows.
const largeSynthPool = 16

// largeSynth is the ~8k-task seeded graph large-m64 runs for a seed.
func largeSynth(seed int64) string {
	return fmt.Sprintf("synth:mixed/seed=%d/width=64/depth=128", 1+seed%largeSynthPool)
}

// largeSpecs is large-m64's pass for a seed: long m64 runs under
// FullCoh and RaCCD at 1:1.
func largeSpecs(seed int64) []runSpec {
	m64 := machine.Machine64().Params()
	type wl struct {
		name  string
		scale float64
	}
	var out []runSpec
	for _, w := range []wl{{"Jacobi", 8}, {"Kmeans", 8}, {"Cholesky", 3}, {largeSynth(seed), 1}} {
		for _, sys := range []coherence.Mode{coherence.FullCoh, coherence.RaCCD} {
			cfg := sim.DefaultConfig(sys, 1)
			cfg.Params = m64
			out = append(out, runSpec{Workload: w.name, Scale: w.scale, Cfg: cfg})
		}
	}
	return out
}

// allLargeSpecs is every run large-m64 can make over all seeds: the
// reference set.
func allLargeSpecs() []runSpec {
	seen := map[string]bool{}
	var out []runSpec
	for seed := int64(0); seed < largeSynthPool; seed++ {
		for _, s := range largeSpecs(seed) {
			if k := s.String(); !seen[k] {
				seen[k] = true
				out = append(out, s)
			}
		}
	}
	return out
}

// serve-mix batches. Every batch has batchRuns runs: batchSpecs synth
// specs under each of serveSystems. Warm batches draw their specs from a
// fixed warm set stored during set-up; cold batches use fresh seeded
// specs that no store has seen. The batch size, the mix and the specs
// are assumed, not taken from recorded traffic; README.md says how they
// differ from the repository's own callers.
const (
	batchRuns    = 16
	batchSpecs   = batchRuns / 2
	warmSpecs    = 16
	coldEvery    = 4 // one cold batch in every coldEvery: a 3:1 warm:cold mix
	serveSpecFmt = "synth:mixed/seed=%d/width=8/depth=8"
)

var serveSystems = []string{"FullCoh", "RaCCD"}

// coldSeedBase separates cold synth seeds per benchmark seed, pass and
// client: cold spec i of client c in pass p under seed s uses synth seed
// coldSeedBase*(1+s*passStride+p) + c*coldSeedBase/4 + i, disjoint from
// the warm set and from every other seed, pass and client while
// i < coldSeedBase/4.
const (
	coldSeedBase = 1 << 20
	passStride   = 64
)

func serveRequest(synthSeed int64, system string) client.RunRequest {
	return client.RunRequest{Workload: fmt.Sprintf(serveSpecFmt, synthSeed), System: system}
}

// warmSet is the fixed set of runs stored during set-up.
func warmSet() []client.RunRequest {
	var out []client.RunRequest
	for i := int64(1); i <= warmSpecs; i++ {
		for _, sys := range serveSystems {
			out = append(out, serveRequest(i, sys))
		}
	}
	return out
}

// batchPlan generates one client's batch sequence for a seed: which
// batches are cold and which specs each carries. It is a pure function
// of (seed, pass, client), so the same seed replays the same traffic.
type batchPlan struct {
	rng      *rand.Rand
	coldNext int64 // synth seed of the next cold spec
	n        int   // batches generated
	coldSlot int   // which batch of the current group of coldEvery is cold
}

func newBatchPlan(seed int64, pass, clientID int) *batchPlan {
	return &batchPlan{
		rng:      rand.New(rand.NewSource(seed*1000003 + int64(pass)*101 + int64(clientID))),
		coldNext: coldSeedBase*(1+seed*passStride+int64(pass)) + int64(clientID)*(coldSeedBase/4),
	}
}

// next returns the next batch and whether it is cold.
func (p *batchPlan) next() ([]client.RunRequest, bool) {
	if p.n%coldEvery == 0 {
		p.coldSlot = p.rng.Intn(coldEvery)
	}
	cold := p.n%coldEvery == p.coldSlot
	p.n++
	runs := make([]client.RunRequest, 0, batchRuns)
	if cold {
		for i := 0; i < batchSpecs; i++ {
			for _, sys := range serveSystems {
				runs = append(runs, serveRequest(p.coldNext, sys))
			}
			p.coldNext++
		}
		return runs, true
	}
	for _, i := range p.rng.Perm(warmSpecs)[:batchSpecs] {
		for _, sys := range serveSystems {
			runs = append(runs, serveRequest(int64(i+1), sys))
		}
	}
	return runs, false
}

// resolveAll checks that every spec builds a runnable configuration and
// resolves its workload identity: the validation a sweep does before
// spending simulation time.
func resolveAll(specs []runSpec) error {
	for _, s := range specs {
		if err := s.Cfg.Check(); err != nil {
			return fmt.Errorf("%v: %w", s, err)
		}
		if _, err := workloads.Identity(s.Workload, s.Scale); err != nil {
			return fmt.Errorf("%v: %w", s, err)
		}
	}
	return nil
}

// rowOf renders a result as its report CSV row (no header) — the line a
// sweep CSV, a served batch CSV and the reference files all carry.
func rowOf(res sim.Result) string {
	csv := report.NewSet([]sim.Result{res}).CSV()
	_, row, _ := strings.Cut(strings.TrimSuffix(csv, "\n"), "\n")
	return row
}

// rowKey is the identifying prefix of a CSV row: workload, system,
// ratio, adr.
func rowKey(row string) string {
	f := strings.SplitN(row, ",", 5)
	if len(f) < 4 {
		return row
	}
	return strings.Join(f[:4], ",")
}
