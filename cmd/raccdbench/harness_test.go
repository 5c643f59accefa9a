package main

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"raccd/internal/workloads"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // reversed: tail must sort
	}
	return xs
}

func TestTailRule(t *testing.T) {
	cases := []struct {
		n          int
		value, pct float64
	}{
		{207, 197, 100 * 197.0 / 207}, // p95 has 10 beyond it
		{1000, 950, 95},               // p95 has 50 beyond it
		{100, 100, 100},               // p95 would leave 5 beyond: the max
		{10, 10, 100},                 // the max
	}
	for _, c := range cases {
		got := tail(seq(c.n))
		if got.Value != c.value || math.Abs(got.Percentile-c.pct) > 1e-9 || got.N != c.n {
			t.Errorf("n=%d: got %+v, want value %g p%.2f", c.n, got, c.value, c.pct)
		}
		beyond := 0
		for _, x := range seq(c.n) {
			if x > got.Value {
				beyond++
			}
		}
		if got.Percentile < 100 && beyond < tailMinBeyond {
			t.Errorf("n=%d: %d samples beyond the tail, want >= %d", c.n, beyond, tailMinBeyond)
		}
	}
}

// TestFailuresMissEveryLimit: refused and failed operations count
// against attempts and as +Inf latency, so they push every percentile
// they reach past any limit.
func TestFailuresMissEveryLimit(t *testing.T) {
	var l opLog
	for i := 0; i < 90; i++ {
		l.ok(fmt.Sprint("ok", i), time.Millisecond, 10)
	}
	for i := 0; i < 7; i++ {
		l.fail(fmt.Sprint("wrong", i), errors.New("wrong row"))
	}
	for i := 0; i < 4; i++ {
		l.fail(fmt.Sprint("refused", i), errors.New("503 refused"))
	}
	if l.attempted != 101 || l.failed != 11 || l.accesses != 900 {
		t.Fatalf("attempted %d failed %d accesses %d, want 101 11 900", l.attempted, l.failed, l.accesses)
	}
	// 11 of 101 failed: the tail (the maximum, as p95 would have only
	// five beyond it) is a failure.
	if got := tail(l.latencies()); !math.IsInf(got.Value, 1) {
		t.Errorf("p%.1f with 11 failures in 101 = %g, want +Inf", got.Percentile, got.Value)
	}
	if got := median(l.latencies()); got != 0.001 {
		t.Errorf("median %g, want 0.001", got)
	}
	// The failure fraction a run reports.
	if f := ratio(float64(l.failed), float64(l.attempted)); f != 11.0/101 {
		t.Errorf("failed_frac %g", f)
	}
}

// TestRepeatedRunsReduceToTheirUpperQuartile: every repetition of a run
// reads as the run's upper quartile in the latency percentiles, so
// neither a quiet moment of the host nor a stall can move a percentile
// from one run to another; a failed repetition keeps +Inf and counts
// against attempts but not in its run's quartile.
func TestRepeatedRunsReduceToTheirUpperQuartile(t *testing.T) {
	var l opLog
	for _, ms := range []int{30, 10, 12, 14, 90} {
		l.ok("a", time.Duration(ms)*time.Millisecond, 1)
	}
	l.ok("b", 50*time.Millisecond, 1)
	l.fail("b", errors.New("wrong row"))
	got := sortedCopy(l.latencies())
	want := []float64{0.03, 0.03, 0.03, 0.03, 0.03, 0.05, math.Inf(1)}
	if len(got) != len(want) {
		t.Fatalf("latencies %v, want %v", got, want)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 && got[i] != want[i] {
			t.Errorf("latencies %v, want %v", got, want)
			break
		}
	}
	if l.attempted != 7 || l.failed != 1 {
		t.Errorf("attempted %d failed %d, want 7 1", l.attempted, l.failed)
	}
	// The rates' pass: each run at its upper quartile, the failure left
	// out.
	if got := l.typicalTotal(); got != 80*time.Millisecond {
		t.Errorf("typicalTotal %v, want 80ms", got)
	}
	if busy := l.busyTime(); busy != 206*time.Millisecond {
		t.Errorf("busy %v, want 206ms", busy)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		// Two overlapping children cover [10, 50): 40, not 50.
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},
		// A child sticking out of its parent only counts inside it.
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
		// Nested: a grandchild is a's child, not root's.
		{ID: 5, Parent: 2, Name: "d", Start: 15, End: 25},
		// Aggregated inner time is credited to its own name.
		{ID: 6, Parent: 1, Name: "e", Start: 60, End: 80, Inner: 15, InnerName: "calls"},
	}
	got := selfTimes(spans)
	want := map[string]int64{
		"root":  100 - 40 - 10 - 20, // minus [10,50), [90,100), [60,80)
		"a":     30 - 10,
		"b":     30,
		"c":     30,
		"d":     10,
		"e":     20 - 15,
		"calls": 15,
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self(%s) = %d, want %d", k, got[k], v)
		}
	}
	var total int64
	for _, v := range got {
		total += v
	}
	// Every nanosecond of the root is attributed once (c's overhang and
	// b's overlap with a are outside or shared).
	if root := int64(100) + 20 + 20; total != root {
		t.Errorf("self times sum to %d, want %d", total, root)
	}
}

func TestSeedDeterminism(t *testing.T) {
	drain := func(seed int64, pass, client int) (ids []string, cold map[string]bool) {
		cold = map[string]bool{}
		p := newBatchPlan(seed, pass, client)
		for i := 0; i < 40; i++ {
			runs, isCold := p.next()
			for _, r := range runs {
				id, err := workloads.Identity(r.Workload, 1)
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, id+"|"+r.System)
				if isCold {
					cold[id] = true
				}
			}
		}
		return ids, cold
	}
	a, coldA := drain(7, 0, 0)
	b, _ := drain(7, 0, 0)
	if len(a) != len(b) {
		t.Fatal("same seed, different batch counts")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverges at run %d: %s vs %s", i, a[i], b[i])
		}
	}
	if len(coldA) != 40/coldEvery*batchSpecs {
		t.Errorf("%d cold specs in 40 batches, want %d (3:1 mix)", len(coldA), 40/coldEvery*batchSpecs)
	}
	warm := map[string]bool{}
	for _, r := range warmSet() {
		id, _ := workloads.Identity(r.Workload, 1)
		warm[id] = true
	}
	for _, other := range []struct {
		seed         int64
		pass, client int
	}{{8, 0, 0}, {7, 1, 0}, {7, 0, 1}, {0, 0, 0}} {
		_, coldB := drain(other.seed, other.pass, other.client)
		for id := range coldB {
			if coldA[id] || warm[id] {
				t.Errorf("%+v: cold identity %s is not fresh", other, id)
			}
		}
	}
	if la, lb := largeSpecs(3), largeSpecs(3); la[len(la)-1].Workload != lb[len(lb)-1].Workload {
		t.Error("large-m64 synth graph is not a function of the seed")
	}
}
