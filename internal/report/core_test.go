package report

import (
	"math"
	"testing"

	"raccd/internal/coherence"
)

// TestCoreModelCycleRatios pins the core-timing axis: the paper's
// workloads under FullCoh and RaCCD at 1:1 (scale 0.25, paper16) for each
// core configuration — simple, simple+prefetch(2), ooo, ooo+prefetch(2).
// Every value is a ratio of simulated cycles, deterministic for a given
// scale, so a drift means the timing model changed; the headline question
// (does RaCCD's benefit over full coherence grow or shrink when the cores
// prefetch or run out of order?) is answered in EXPERIMENTS.md from these
// numbers.
func TestCoreModelCycleRatios(t *testing.T) {
	// benefit is the geomean over workloads of FullCoh cycles / RaCCD
	// cycles under one core configuration; raccd holds the RaCCD cycles
	// per workload, coverage the mean prefetch coverage of the RaCCD runs
	// that armed a prefetcher.
	type measured struct {
		benefit  float64
		raccd    []uint64
		coverage float64
	}
	sweep := func(core string, prefetch int) measured {
		mx := DefaultMatrix()
		mx.Systems = []coherence.Mode{coherence.FullCoh, coherence.RaCCD}
		mx.Ratios = []int{1}
		mx.ADR = false
		mx.Scale = 0.25
		mx.Core = core
		mx.PrefetchDegree = prefetch
		set, err := mx.Run()
		if err != nil {
			t.Fatalf("core %q prefetch %d: %v", core, prefetch, err)
		}
		var m measured
		logBenefit, covSum, covRuns := 0.0, 0.0, 0
		for _, w := range mx.Workloads {
			fc, ok1 := set.Get(w, coherence.FullCoh, 1, false)
			rc, ok2 := set.Get(w, coherence.RaCCD, 1, false)
			if !ok1 || !ok2 {
				t.Fatalf("core %q prefetch %d: missing %s rows", core, prefetch, w)
			}
			logBenefit += math.Log(float64(fc.Cycles) / float64(rc.Cycles))
			m.raccd = append(m.raccd, rc.Cycles)
			if rc.PrefetchIssued > 0 {
				covSum += rc.PrefetchCoverage
				covRuns++
			}
		}
		m.benefit = math.Exp(logBenefit / float64(len(mx.Workloads)))
		if covRuns > 0 {
			m.coverage = covSum / float64(covRuns)
		}
		return m
	}
	simple, simplePF := sweep("", 0), sweep("", 2)
	ooo, oooPF := sweep("ooo", 0), sweep("ooo", 2)

	// speedup is the geomean over workloads of b's RaCCD cycles / a's:
	// >1 means configuration a simulates fewer cycles than b.
	speedup := func(a, b measured) float64 {
		lg := 0.0
		for i := range a.raccd {
			lg += math.Log(float64(b.raccd[i]) / float64(a.raccd[i]))
		}
		return math.Exp(lg / float64(len(a.raccd)))
	}

	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"RaCCD vs FullCoh, simple core", simple.benefit, 1.0207224420735066},
		{"RaCCD vs FullCoh, simple+prefetch2", simplePF.benefit, 1.0723865142215037},
		{"RaCCD vs FullCoh, ooo", ooo.benefit, 0.9103638712971033},
		{"RaCCD vs FullCoh, ooo+prefetch2", oooPF.benefit, 0.9155462822141904},
		{"RaCCD benefit with prefetch2 / without", simplePF.benefit / simple.benefit, 1.0506152015655168},
		{"RaCCD prefetch2 vs no prefetch", speedup(simplePF, simple), 2.734082276316667},
		{"RaCCD ooo vs simple", speedup(ooo, simple), 3.8613169140300974},
		{"prefetch coverage, simple core", simplePF.coverage, 0.8482765524976633},
		{"prefetch coverage, ooo", oooPF.coverage, 0.848058833827063},
	} {
		if rel := math.Abs(c.got-c.want) / c.want; rel > 1e-12 {
			t.Errorf("%s = %.16g, want %.16g (rel err %.3g)", c.name, c.got, c.want, rel)
		}
	}
}
