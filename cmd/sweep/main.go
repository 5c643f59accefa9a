// Command sweep regenerates the paper's evaluation: every figure (2, 6,
// 7a-7d, 8, 9, 10), Table III, and the §V-C NCRT latency sensitivity study.
//
// Usage:
//
//	sweep                  # everything at full (÷16-scaled) size
//	sweep -fig 6           # a single figure
//	sweep -table 3         # Table III only
//	sweep -fig vc          # NCRT latency study
//	sweep -scale 0.25      # faster, smaller problems
//	sweep -jobs 8          # run 8 simulations concurrently (0 = all CPUs)
//	sweep -csv results.csv # also dump raw results
//	sweep -synth chain/seed=7,stencil   # add synthetic workloads to the matrix
//	sweep -trace run.rtf   # add a recorded RTF trace to the matrix
//	sweep -cache ~/.raccd  # memoize runs in a content-addressed store
//	sweep -machine m64     # the whole evaluation on a 64-core machine
//	sweep -machines paper16,m32,m64     # Fig 2 across machine presets
//	sweep -remote http://h1:8080,http://h2:8080
//	                       # simulate on raccdd daemons, render locally
//
// Simulations fan out across -jobs workers (default: one per CPU) with
// results — figures, CSV, progress lines — identical to a sequential
// run. Ctrl-C cancels the sweep cleanly.
//
// With -cache DIR every run is keyed by its configuration fingerprint and
// workload identity and served from the store when present, so repeated
// sweeps cost only the runs that changed. The same directory can back a
// raccdd daemon (see docs/SERVICE.md): offline sweeps and served requests
// share one cache, and cached output is byte-identical to simulating.
//
// With -remote the simulations run on a fleet of raccdd daemons instead:
// each endpoint receives its rendezvous-hashed partition of the matrix as
// one batch job, identical runs dedupe in the endpoints' caches
// fleet-wide, and the merged results render locally — figures and CSV
// byte-identical to a local sweep.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"raccd"
	"raccd/internal/report"
	"raccd/internal/resultstore"     //raccd:layering-ok -cache shares the daemon's on-disk store; the store is service plumbing with no public mirror
	"raccd/internal/workloads"       //raccd:layering-ok -scale is checked against the workload scale domain up front, before any run is spent
	"raccd/internal/workloads/synth" //raccd:layering-ok -synth validates/canonicalizes spec strings client-side before any run is spent
)

// figureOrder is every figure the sweep can render, in print order.
var figureOrder = []string{"2", "6", "7a", "7b", "7c", "7d", "8", "9", "10"}

// run parses args and executes the sweep, writing figures to stdout and
// diagnostics to stderr. It returns the process exit code; ctx cancels
// an in-flight sweep.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		fig      = fs.String("fig", "", "only this figure: 2, 6, 7a, 7b, 7c, 7d, 8, 9, 10, vc")
		tbl      = fs.String("table", "", "only this table: 1, 2, 3")
		machName = fs.String("machine", "", "machine preset for every run: paper16 (default), m32, m64, or a power-of-two core count")
		machList = fs.String("machines", "", "comma-separated machine presets: run the Fig 2 matrix once per machine and print the cross-machine comparison")
		scale    = fs.Float64("scale", 1.0, "problem scale (1.0 = Table II ÷ 16)")
		jobs     = fs.Int("jobs", 0, "concurrent simulations (0 = one per CPU, 1 = sequential)")
		core     = fs.String("core", "", "core timing model for every run: simple (default) or ooo; changes the simulated machine")
		prefetch = fs.Int("prefetch", 0, "delta prefetcher degree for every run (blocks per trained trigger; 0 = off)")
		pfDist   = fs.Int("prefetch-distance", 0, "prefetcher look-ahead in strides (0 = default 4; needs -prefetch)")
		csvPath  = fs.String("csv", "", "write raw results as CSV to this file")
		synths   = fs.String("synth", "", "synthetic workload spec(s) to add to the matrix, comma-separated: preset[/key=val]...")
		traces   = fs.String("trace", "", "RTF trace file(s) to add to the matrix, comma-separated")
		only     = fs.Bool("only-extra", false, "run only the -synth/-trace workloads, not the paper set")
		cache    = fs.String("cache", "", "memoize runs in this result-store directory (shareable with raccdd)")
		remote   = fs.String("remote", "", "comma-separated raccdd endpoints: simulate on the fleet instead of locally, one batch per endpoint (rendezvous-partitioned), figures rendered here")
		quiet    = fs.Bool("q", false, "suppress per-run progress")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	mach, err := raccd.ParseMachine(*machName)
	if err != nil {
		fmt.Fprintln(stderr, "sweep:", err)
		return 2
	}
	var machines []raccd.Machine
	for _, name := range strings.Split(*machList, ",") {
		if name = strings.TrimSpace(name); name != "" {
			mc, err := raccd.ParseMachine(name)
			if err != nil {
				fmt.Fprintln(stderr, "sweep:", err)
				return 2
			}
			machines = append(machines, mc)
		}
	}

	if len(machines) > 0 && *tbl != "" {
		fmt.Fprintln(stderr, "sweep: -machines renders the Fig 2 comparison; use -machine to pick a table's machine")
		return 2
	}

	var endpoints []string
	for _, e := range strings.Split(*remote, ",") {
		if e = strings.TrimSpace(e); e != "" {
			endpoints = append(endpoints, e)
		}
	}
	if len(endpoints) > 0 {
		// Remote execution ships plain run requests; the matrix variants
		// that need in-process hooks stay local-only.
		switch {
		case len(machines) > 0:
			fmt.Fprintln(stderr, "sweep: -remote cannot run the -machines comparison; run it per machine with -machine")
			return 2
		case *fig == "vc":
			fmt.Fprintln(stderr, "sweep: -remote cannot run the NCRT latency study; it needs in-process latency overrides")
			return 2
		case *cache != "":
			fmt.Fprintln(stderr, "sweep: -remote uses the endpoints' caches; drop -cache")
			return 2
		}
	}

	switch *tbl {
	case "1":
		fmt.Fprintln(stdout, report.Table1For(mach.Params()))
		return 0
	case "2":
		fmt.Fprintln(stdout, report.Table2())
		return 0
	case "3":
		fmt.Fprintln(stdout, report.Table3For(mach.Params()))
		return 0
	case "":
	default:
		fmt.Fprintf(stderr, "sweep: unknown table %q (want 1, 2 or 3)\n", *tbl)
		fs.Usage()
		return 2
	}

	// Validate -fig before spending hours on the sweep.
	figures := map[string]bool{"vc": true}
	for _, k := range figureOrder {
		figures[k] = true
	}
	if *fig != "" && !figures[*fig] {
		fmt.Fprintf(stderr, "sweep: unknown figure %q (want 2, 6, 7a, 7b, 7c, 7d, 8, 9, 10 or vc)\n", *fig)
		fs.Usage()
		return 2
	}

	if err := workloads.CheckScale(*scale); err != nil {
		fmt.Fprintln(stderr, "sweep:", err)
		return 2
	}

	m := report.DefaultMatrix()
	m.Scale = *scale
	m.Jobs = *jobs
	m.Machine = mach
	m.Core = *core
	m.PrefetchDegree = *prefetch
	m.PrefetchDistance = *pfDist
	var extra []string
	for _, s := range strings.Split(*synths, ",") {
		if s = strings.TrimSpace(s); s != "" {
			extra = append(extra, synth.Canonical(s))
		}
	}
	for _, p := range strings.Split(*traces, ",") {
		if p = strings.TrimSpace(p); p != "" {
			extra = append(extra, "trace:"+p)
		}
	}
	if *only {
		if len(extra) == 0 {
			fmt.Fprintln(stderr, "sweep: -only-extra without -synth or -trace")
			return 2
		}
		m.Workloads = extra
	} else {
		m.Workloads = append(m.Workloads, extra...)
	}
	if !*quiet {
		m.Progress = func(msg string) { fmt.Fprintln(stderr, msg) }
	}
	if *cache != "" {
		store, err := resultstore.Open(*cache)
		if err != nil {
			fmt.Fprintln(stderr, "sweep:", err)
			return 2
		}
		m.Cache = store
		defer func() {
			st := store.Stats()
			fmt.Fprintf(stderr, "cache %s: %d hits, %d simulated, %d objects (%d KiB)\n",
				*cache, st.Hits+st.Coalesced, st.Misses, st.Objects, st.Bytes/1024)
		}()
	}

	// -machines: run the Fig 2 matrix once per named machine and print the
	// cross-machine comparison (how the deactivation opportunity moves as
	// the chip grows).
	if len(machines) > 0 {
		if *fig != "" && *fig != "2" {
			fmt.Fprintln(stderr, "sweep: -machines renders the Fig 2 comparison; combine it only with -fig 2")
			return 2
		}
		m.Ratios = []int{1}
		m.ADR = false
		sets, err := m.RunMachinesContext(ctx, machines)
		if err != nil {
			fmt.Fprintln(stderr, "sweep:", err)
			return 1
		}
		fmt.Fprintln(stdout, report.Fig2AcrossMachines(sets))
		if *csvPath != "" {
			var all strings.Builder
			for _, ms := range sets {
				fmt.Fprintf(&all, "# machine %s\n%s", ms.Machine.Name(), ms.Set.CSV())
			}
			if err := os.WriteFile(*csvPath, []byte(all.String()), 0o644); err != nil {
				fmt.Fprintln(stderr, "sweep:", err)
				return 1
			}
			fmt.Fprintf(stderr, "raw results written to %s\n", *csvPath)
		}
		return 0
	}

	if *fig == "vc" {
		cycles, err := m.RunNCRTSweepContext(ctx)
		if err != nil {
			fmt.Fprintln(stderr, "sweep:", err)
			return 1
		}
		fmt.Fprintln(stdout, report.NCRTLatencyTable(report.NCRTLatencies, cycles))
		return 0
	}

	// Figures 2 and 8 only need 1:1 runs; trim the matrix when possible.
	switch *fig {
	case "2", "8":
		m.Ratios = []int{1}
		m.ADR = false
	case "9", "10":
		m.Ratios = []int{1}
	}

	var set *report.Set
	if len(endpoints) > 0 {
		set, err = runRemote(ctx, m, *machName, endpoints)
	} else {
		set, err = m.RunContext(ctx)
	}
	if err != nil {
		fmt.Fprintln(stderr, "sweep:", err)
		return 1
	}

	render := map[string]func() string{
		"2": set.Fig2, "6": set.Fig6, "7a": set.Fig7a, "7b": set.Fig7b,
		"7c": set.Fig7c, "7d": set.Fig7d, "8": set.Fig8, "9": set.Fig9,
		"10": set.Fig10,
	}
	if *fig != "" {
		fmt.Fprintln(stdout, render[*fig]())
	} else {
		for _, k := range figureOrder {
			fmt.Fprintln(stdout, render[k]())
		}
		fmt.Fprintln(stdout, report.Table1For(mach.Params()))
		fmt.Fprintln(stdout, report.Table2())
		fmt.Fprintln(stdout, report.Table3For(mach.Params()))
	}

	if *csvPath != "" {
		if err := os.WriteFile(*csvPath, []byte(set.CSV()), 0o644); err != nil {
			fmt.Fprintln(stderr, "sweep:", err)
			return 1
		}
		fmt.Fprintf(stderr, "raw results written to %s\n", *csvPath)
	}
	return 0
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		// First signal: cancel the sweep, let in-flight simulations
		// finish. Second signal: default handling, i.e. die now.
		<-ctx.Done()
		stop()
	}()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}
