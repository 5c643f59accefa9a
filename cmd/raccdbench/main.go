// Command raccdbench is raccd's benchmark: one command that runs a named
// workload for a fixed time, checks every simulated output against
// recorded reference rows, and prints its metrics by name and unit.
//
//	raccdbench --workload eval-paper16 --seed 1 --seconds 40 --trace 0
//
// With --trace 0 it prints the end-to-end metrics, measured untraced;
// with --trace 1 it alternates untraced and traced passes and prints the
// per-layer metrics derived from the traced pass's spans, plus the
// tracing overhead. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. A wrong output
// counts as a failed operation and makes the command exit 1.
//
// See README.md in this directory for the workloads, the metric
// glossary and how to run it (run.sh builds and runs it from a source
// checkout).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

var inf = math.Inf(1)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// newMetric makes v encodable: JSON has no infinity, and a latency is
// +Inf when failed operations reach its percentile, so it reads as the
// largest float instead.
func newMetric(v float64, unit string) metric {
	if math.IsInf(v, 1) {
		v = math.MaxFloat64
	}
	return metric{v, unit}
}

// result is the benchmark's output record.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is what is written to the records directory: the result plus
// the host fingerprint, the seed and the sample counts behind each
// number.
type record struct {
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Seconds  float64           `json:"seconds"`
	Trace    bool              `json:"trace"`
	Host     hostInfo          `json:"host"`
	Result   result            `json:"result"`
	Notes    map[string]string `json:"notes"`
	Errors   []string          `json:"errors,omitempty"`
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("raccdbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "workload seed (0 <= seed < 2^31)")
	seconds := fs.Float64("seconds", 40, "how long to measure")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	out := fs.String("out", ".bench_build/raccdbench", "directory for records, traces and scratch stores")
	recordDir := fs.String("record", "", "simulate every reference run and write the rows under `dir`/ref, then exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	jobs := runtime.NumCPU()
	if *recordDir != "" {
		if err := recordReferences(ctx, *recordDir, jobs); err != nil {
			fmt.Fprintln(stderr, "raccdbench:", err)
			return 1
		}
		return 0
	}
	if *seed < 0 || *seed >= 1<<31 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "raccdbench: need 0 <= seed < 2^31, seconds > 0, trace 0 or 1")
		return 2
	}
	b := bench{workload: *workload, seed: *seed, seconds: *seconds, jobs: jobs, out: *out, notes: map[string]string{}}
	var res result
	var err error
	if *trace == 1 {
		res, err = b.traced(ctx)
	} else {
		res, err = b.timed(ctx)
	}
	if err != nil {
		fmt.Fprintln(stderr, "raccdbench:", err)
		return 1
	}
	rec := record{Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
		Host: fingerprintHost(), Result: res, Notes: b.notes}
	for _, e := range b.errs {
		rec.Errors = append(rec.Errors, e.Error())
	}
	printReport(stdout, rec)
	if err := writeRecord(*out, rec); err != nil {
		fmt.Fprintln(stderr, "raccdbench: writing record:", err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "raccdbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		for _, e := range rec.Errors {
			fmt.Fprintln(stderr, "raccdbench: wrong output:", e)
		}
		return 1
	}
	return 0
}

// bench is one invocation's state.
type bench struct {
	workload string
	seed     int64
	seconds  float64
	jobs     int
	out      string
	notes    map[string]string
	errs     []error
}

func (b *bench) note(k, format string, args ...any) { b.notes[k] = fmt.Sprintf(format, args...) }

// Set-up is repeated across a run, between its measured phases, and
// setup_s is the median: one set-up on the simulation workloads takes
// tens of milliseconds, too short to read the host's speed from a single
// moment of the run.
const (
	// setupsPerPass is how many set-ups follow each eval-paper16 pass.
	setupsPerPass = 2
	// serveSegment is how long serve-mix's clients run on one fabric
	// before it is stopped and the next is set up.
	serveSegment = 5 * time.Second
)

// timed measures the end-to-end metrics with tracing off.
func (b *bench) timed(ctx context.Context) (result, error) {
	log := &opLog{}
	var setups, lat []float64 // seconds
	var wall time.Duration
	var host hostCounters
	var rss float64
	// runs_per_s and sim_maccess_per_s are rates over rateWall.
	var rateRuns, rateAccesses float64
	var rateWall time.Duration
	switch b.workload {
	case evalPaper16, largeM64:
		sb, err := newSimBench(b.workload, b.seed, b.jobs)
		if err != nil {
			return result{}, err
		}
		setup := func() error {
			resetHeap()
			t0 := time.Now()
			if err := sb.setup(); err != nil {
				return err
			}
			setups = append(setups, time.Since(t0).Seconds())
			return nil
		}
		if err := setup(); err != nil {
			return result{}, err
		}
		reps := setupsPerPass
		if b.workload == largeM64 {
			reps = 1 // each set-up builds every 2.6k–8k-task graph
		}
		var passWalls []string
		var occupancy []float64 // per pass: run time / (workers × wall)
		for {
			resetHeap()
			before := readHost()
			busy0 := log.busyTime()
			t0 := time.Now()
			if err := sb.pass(ctx, log); err != nil {
				return result{}, err
			}
			d := time.Since(t0)
			host = host.add(readHost().sub(before))
			busy := log.busyTime() - busy0
			occupancy = append(occupancy, busy.Seconds()/(float64(sb.workers())*d.Seconds()))
			passWalls = append(passWalls, fmt.Sprintf("%.3f", d.Seconds()))
			wall += d
			if wall+d > b.dur() {
				break
			}
			for i := 0; i < reps; i++ {
				if err := setup(); err != nil {
					return result{}, err
				}
			}
		}
		rss = peakRSSMB()
		lat = log.latencies()
		// The rates are over the pass the run list takes with each run at
		// its typicalTime, spread over the workers at the median
		// occupancy they kept: per-run cost and the pool's idle time both
		// show, but not how long the host's quiet moments lasted.
		passes := float64(len(passWalls))
		rateRuns, rateAccesses = float64(log.attempted)/passes, float64(log.accesses)/passes
		rateWall = time.Duration(float64(log.typicalTotal()) / (float64(sb.workers()) * median(occupancy)))
		b.note("runs_per_s", "pass of %.4g s at %.4f occupancy; %.4g over the passes' wall", rateWall.Seconds(), median(occupancy), float64(log.attempted)/wall.Seconds())
		b.note("passes", "%d, wall s %v", len(passWalls), passWalls)
		b.note("runs_per_pass", "%d", len(sb.specs))
		if sb.paperErr != 0 {
			b.note("paper_err_pp", "%.4f pp", sb.paperErr)
		}
	case serveMix:
		sb, err := newServeBench(b.seed, b.jobs, b.out)
		if err != nil {
			return result{}, err
		}
		// Each segment sets up a fresh fabric and keeps its clients busy
		// for serveSegment, until the clients have run for the whole
		// measured time.
		var p servePass
		for seg := 0; seg == 0 || p.wall < b.dur(); seg++ {
			resetHeap()
			t0 := time.Now()
			f, err := sb.start(ctx, nil)
			if err != nil {
				return result{}, err
			}
			setups = append(setups, time.Since(t0).Seconds())
			resetHeap()
			sp, err := sb.load(ctx, f, seg, min(serveSegment, b.dur()-p.wall).Seconds(), 0)
			f.stop(ctx)
			if err != nil {
				return result{}, err
			}
			p.merge(sp)
		}
		p.log(log)
		// Each segment's peak covers its load phase only, not the set-up
		// or the in-process verification after it.
		wall, host, rss = p.wall, p.host, median(p.rss)
		rateRuns, rateAccesses, rateWall = float64(len(p.ops)*batchRuns), float64(log.accesses), wall
		hit, miss := p.latencies()
		lat = hit
		b.note("segments", "%d", len(setups))
		b.note("batches_per_s", "%.3f", float64(len(p.ops))/wall.Seconds())
		b.note("miss_ms_p50", "%.3f (n=%d)", median(miss)*1e3, len(miss))
	default:
		return result{}, fmt.Errorf("unknown workload %q (want %s)", b.workload, strings.Join(workloadNames, ", "))
	}
	b.errs = log.errs
	ops := float64(log.attempted)
	t := tail(lat)
	b.note("latency_ms_p50", "n=%d", len(lat))
	b.note("latency_ms_tail", "p%.1f of n=%d", t.Percentile, t.N)
	b.note("setup_s", "median of %d", len(setups))
	b.note("failed_frac", "%g", ratio(float64(log.failed), ops))
	m := map[string]metric{
		"runs_per_s":        newMetric(rateRuns/rateWall.Seconds(), "1/s"),
		"sim_maccess_per_s": newMetric(rateAccesses/1e6/rateWall.Seconds(), "Macc/s"),
		"latency_ms_p50":    newMetric(median(lat)*1e3, "ms"),
		"latency_ms_tail":   newMetric(t.Value*1e3, "ms"),
		"setup_s":           newMetric(median(setups), "s"),
		"alloc_mb_per_op":   newMetric(ratio(float64(host.allocBytes)/1e6, ops), "MB"),
		"peak_rss_mb":       newMetric(rss, "MB"),
	}
	return result{Correct: log.failed == 0, Attempted: log.attempted, Failed: log.failed, Metrics: m}, nil
}

// resetHeap starts a measured phase from the same state every time: a
// collected heap with its memory returned to the OS, so one phase's
// garbage is not charged to the next and each phase pays the same page
// faults.
func resetHeap() { debug.FreeOSMemory() }

func (b *bench) dur() time.Duration { return time.Duration(b.seconds * float64(time.Second)) }

// traced alternates untraced and traced passes and reports per-layer
// metrics from the traced ones, plus tracing overhead.
func (b *bench) traced(ctx context.Context) (result, error) {
	log := &opLog{}
	var layer map[string]float64
	switch b.workload {
	case evalPaper16, largeM64:
		sb, err := newSimBench(b.workload, b.seed, b.jobs)
		if err != nil {
			return result{}, err
		}
		if err := sb.setup(); err != nil {
			return result{}, err
		}
		tr := newTracer()
		var aggs []*tracedAgg
		var untracedWall, tracedWall time.Duration
		start := time.Now()
		for i := 0; ; i++ {
			resetHeap()
			t0 := time.Now()
			if err := sb.pass(ctx, log); err != nil {
				return result{}, err
			}
			u := time.Since(t0)
			resetHeap()
			agg, err := sb.tracedPass(ctx, tr, i, log)
			if err != nil {
				// A traced run that fails is a wrong output like any other.
				log.fail(fmt.Sprintf("traced pass %d", i), err)
			}
			untracedWall += u
			tracedWall += agg.wall
			aggs = append(aggs, agg)
			if time.Since(start)+u+agg.wall > b.dur() {
				break
			}
		}
		layer = simLayerMetrics(tr.snapshot(), aggs)
		layer["trace.overhead_s"] = (tracedWall - untracedWall).Seconds() / float64(len(aggs)) // per pass
		layer["trace.overhead_frac"] = ratio((tracedWall - untracedWall).Seconds(), untracedWall.Seconds())
		b.note("traced_passes", "%d", len(aggs))
		if err := tr.write(filepath.Join(b.out, "traces", fmt.Sprintf("%s-seed%d.json", b.workload, b.seed))); err != nil {
			return result{}, err
		}
	case serveMix:
		sb, err := newServeBench(b.seed, b.jobs, b.out)
		if err != nil {
			return result{}, err
		}
		f, err := sb.start(ctx, nil)
		if err != nil {
			return result{}, err
		}
		resetHeap()
		u, err := sb.load(ctx, f, 0, b.seconds/2.5, 0)
		f.stop(ctx)
		if err != nil {
			return result{}, err
		}
		u.log(log)
		perClient := len(u.ops) / serveClients
		tr := newTracer()
		f, err = sb.start(ctx, tr)
		if err != nil {
			return result{}, err
		}
		f.resetCounters()
		resetHeap()
		since := time.Now()
		before := storeCounters(f)
		tp, err := sb.load(ctx, f, 1, 0, perClient)
		if err != nil {
			f.stop(ctx)
			return result{}, err
		}
		tp.log(log)
		layer, err = serveLayerMetrics(ctx, f, tp, since, before)
		f.stop(ctx)
		if err != nil {
			return result{}, err
		}
		hit, miss := u.latencies()
		layer["client.hit_ms_p50"] = median(hit) * 1e3
		layer["client.hit_ms_tail"] = tail(hit).Value * 1e3
		layer["client.miss_ms_p50"] = median(miss) * 1e3
		// Same batch count per client on both sides, so wall times compare.
		untracedWall := u.wall.Seconds() * float64(perClient*serveClients) / float64(len(u.ops))
		layer["trace.overhead_s"] = tp.wall.Seconds() - untracedWall
		layer["trace.overhead_frac"] = ratio(tp.wall.Seconds()-untracedWall, untracedWall)
		if err := tr.write(filepath.Join(b.out, "traces", fmt.Sprintf("%s-seed%d.json", b.workload, b.seed))); err != nil {
			return result{}, err
		}
	default:
		return result{}, fmt.Errorf("unknown workload %q (want %s)", b.workload, strings.Join(workloadNames, ", "))
	}
	b.errs = log.errs
	m := map[string]metric{}
	for _, lm := range layerMetrics {
		m[lm.name] = newMetric(layer[lm.name], lm.unit)
	}
	return result{Correct: log.failed == 0, Attempted: log.attempted, Failed: log.failed, Metrics: m}, nil
}

// printReport prints the record for people: host, seed, then every
// metric by name and unit with its notes.
func printReport(w io.Writer, rec record) {
	h := rec.Host
	fmt.Fprintf(w, "# raccdbench %s seed=%d seconds=%g trace=%v\n", rec.Workload, rec.Seed, rec.Seconds, rec.Trace)
	fmt.Fprintf(w, "# host: cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s %s\n", h.CPU, h.NProc, h.GOMAXPROCS, h.GoVersion, h.Commit, h.OS)
	fmt.Fprintf(w, "# attempted=%d failed=%d correct=%v\n", rec.Result.Attempted, rec.Result.Failed, rec.Result.Correct)
	names := make([]string, 0, len(rec.Result.Metrics))
	for n := range rec.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rec.Result.Metrics[n]
		note := ""
		if s, ok := rec.Notes[n]; ok {
			note = "  (" + s + ")"
		}
		fmt.Fprintf(w, "%-34s %16.6g %-8s%s\n", n, m.Value, m.Unit, note)
	}
	var extra []string
	for k := range rec.Notes {
		if _, ok := rec.Result.Metrics[k]; !ok {
			extra = append(extra, k)
		}
	}
	sort.Strings(extra)
	for _, k := range extra {
		fmt.Fprintf(w, "# %s: %s\n", k, rec.Notes[k])
	}
}

func writeRecord(dir string, rec record) error {
	dir = filepath.Join(dir, "records")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%v-%d.json", rec.Workload, rec.Seed, rec.Trace, time.Now().UnixNano())
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}
