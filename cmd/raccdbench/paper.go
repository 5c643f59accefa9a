package main

import (
	"math"

	"raccd/internal/coherence" //raccd:layering-ok figure averages select results by coherence mode
	"raccd/internal/report"
	"raccd/internal/sim" //raccd:layering-ok figure averages read sim.Result fields
)

// paperPoint is one average the paper reports, in percent, with how to
// compute the reproduction's value from a full evaluation set.
type paperPoint struct {
	name  string
	paper float64
	sys   coherence.Mode
	ratio int
	// norm divides each benchmark's value by its FullCoh 1:1 value.
	norm   bool
	metric func(sim.Result) float64
}

var (
	ncFraction = func(r sim.Result) float64 { return r.NCFraction }
	cyclesOf   = func(r sim.Result) float64 { return float64(r.Cycles) }
	dirAccOf   = func(r sim.Result) float64 { return float64(r.DirAccesses) }
	llcHitOf   = func(r sim.Result) float64 { return r.LLCHitRatio }
	dirOccOf   = func(r sim.Result) float64 { return r.DirOccupancy }
)

// paperPoints are the averages the repository quotes from the paper.
var paperPoints = []paperPoint{
	{"fig2_pt_nc", 26.9, coherence.PT, 1, false, ncFraction},
	{"fig2_raccd_nc", 78.6, coherence.RaCCD, 1, false, ncFraction},
	{"fig6_fullcoh_1:2", 122, coherence.FullCoh, 2, true, cyclesOf},
	{"fig6_fullcoh_1:256", 171, coherence.FullCoh, 256, true, cyclesOf},
	{"fig6_raccd_1:64", 102.8, coherence.RaCCD, 64, true, cyclesOf},
	{"fig6_raccd_1:256", 110, coherence.RaCCD, 256, true, cyclesOf},
	{"fig7a_raccd_dir", 26, coherence.RaCCD, 1, true, dirAccOf},
	{"fig7b_fullcoh_1:1", 56, coherence.FullCoh, 1, false, llcHitOf},
	{"fig7b_fullcoh_1:256", 24, coherence.FullCoh, 256, false, llcHitOf},
	{"fig7b_raccd_1:1", 55, coherence.RaCCD, 1, false, llcHitOf},
	{"fig7b_raccd_1:256", 51, coherence.RaCCD, 256, false, llcHitOf},
	{"fig8_fullcoh_occ", 65.7, coherence.FullCoh, 1, false, dirOccOf},
	{"fig8_pt_occ", 20.3, coherence.PT, 1, false, dirOccOf},
	{"fig8_raccd_occ", 10.8, coherence.RaCCD, 1, false, dirOccOf},
}

// paperErrPP is the mean absolute gap, in percentage points, between
// the reproduction's figure averages over the benchmarks in set and the
// paper's.
func paperErrPP(set *report.Set) float64 {
	var sum float64
	for _, p := range paperPoints {
		var v float64
		var n int
		for _, w := range set.Workloads() {
			r, ok := set.Get(w, p.sys, p.ratio, false)
			if !ok {
				continue
			}
			x := p.metric(r)
			if p.norm {
				base, ok := set.Get(w, coherence.FullCoh, 1, false)
				if !ok || p.metric(base) == 0 {
					continue
				}
				x /= p.metric(base)
			}
			v += x
			n++
		}
		sum += math.Abs(100*v/float64(max(n, 1)) - p.paper)
	}
	return sum / float64(len(paperPoints))
}
