// Command perfgate is the CI perf-regression gate: it compares a freshly
// regenerated BENCH_*.json record against the checked-in reference and
// fails when a headline ratio regressed beyond the tolerance.
//
//	perfgate -ref BENCH_machine.json -new BENCH_machine.ci.json
//	perfgate -ref BENCH_machine.json -new out.json -tolerance 0.10
//	perfgate -ref BENCH_core.json -new out.json -keys speedup_ooo_vs_simple_raccd
//
// Only ratio fields are gated — headline keys containing "speedup"
// (higher is better) or "slowdown" (lower is better). Absolute
// throughput numbers (runs/s, ns) are host-dependent, so comparing them
// against a record generated on different hardware would gate on the
// weather; ratios of two measurements taken on the same host transfer.
// A key present in only one record is an error: a renamed or vanished
// ratio silently ungates itself otherwise.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// bench is the subset of a BENCH_*.json record perfgate reads.
type bench struct {
	Machine  string             `json:"machine"`
	Date     string             `json:"date"`
	Headline map[string]float64 `json:"-"`
}

// load reads a record, keeping only numeric headline fields.
func load(path string) (bench, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return bench{}, err
	}
	var raw struct {
		Machine  string                     `json:"machine"`
		Date     string                     `json:"date"`
		Headline map[string]json.RawMessage `json:"headline"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return bench{}, fmt.Errorf("%s: %w", path, err)
	}
	b := bench{Machine: raw.Machine, Date: raw.Date, Headline: map[string]float64{}}
	for k, v := range raw.Headline {
		var f float64
		if json.Unmarshal(v, &f) == nil {
			b.Headline[k] = f
		}
	}
	return b, nil
}

// ratioKeys returns the gated keys of a record in sorted order: every
// headline field whose name marks it as a ratio.
func ratioKeys(b bench) []string {
	var keys []string
	for k := range b.Headline {
		if strings.Contains(k, "speedup") || strings.Contains(k, "slowdown") {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// regression returns how much worse `new` is than `ref` for this key as a
// fraction (negative means improved). Direction-aware: speedups regress
// downward, slowdowns regress upward.
func regression(key string, ref, new float64) float64 {
	if ref == 0 {
		return 0
	}
	if strings.Contains(key, "slowdown") {
		return new/ref - 1
	}
	return 1 - new/ref
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfgate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		refPath   = fs.String("ref", "", "checked-in reference BENCH_*.json")
		newPath   = fs.String("new", "", "freshly regenerated record to gate")
		tolerance = fs.Float64("tolerance", 0.15, "allowed fractional regression before failing")
		keysFlag  = fs.String("keys", "", "comma-separated headline keys to gate (default: every speedup/slowdown ratio in the reference)")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if *refPath == "" || *newPath == "" {
		fmt.Fprintln(stderr, "perfgate: -ref and -new are required")
		fs.Usage()
		return 2
	}
	ref, err := load(*refPath)
	if err != nil {
		fmt.Fprintln(stderr, "perfgate:", err)
		return 2
	}
	cur, err := load(*newPath)
	if err != nil {
		fmt.Fprintln(stderr, "perfgate:", err)
		return 2
	}

	keys := ratioKeys(ref)
	if *keysFlag != "" {
		keys = keys[:0]
		for _, k := range strings.Split(*keysFlag, ",") {
			if k = strings.TrimSpace(k); k != "" {
				keys = append(keys, k)
			}
		}
	}
	if len(keys) == 0 {
		fmt.Fprintln(stderr, "perfgate: reference has no ratio fields to gate")
		return 2
	}

	failed := 0
	var rows []gateRow
	for _, k := range keys {
		rv, okRef := ref.Headline[k]
		nv, okNew := cur.Headline[k]
		if !okRef || !okNew {
			var missing []string
			if !okRef {
				missing = append(missing, "reference")
			}
			if !okNew {
				missing = append(missing, "new")
			}
			fmt.Fprintf(stderr, "perfgate: key %q missing from %s record\n", k, strings.Join(missing, " and "))
			rows = append(rows, gateRow{key: k, ref: rv, cur: nv, verdict: "MISSING"})
			failed++
			continue
		}
		reg := regression(k, rv, nv)
		verdict := "ok"
		if reg > *tolerance {
			verdict = "REGRESSED"
			failed++
		}
		fmt.Fprintf(stdout, "%-32s ref=%.4f new=%.4f regression=%+.1f%% %s\n", k, rv, nv, reg*100, verdict)
		rows = append(rows, gateRow{key: k, ref: rv, cur: nv, reg: reg, verdict: verdict})
	}
	// On GitHub Actions, mirror the comparison into the job summary so a
	// reviewer sees the ratio table without opening the step log.
	if path := os.Getenv("GITHUB_STEP_SUMMARY"); path != "" {
		if err := appendSummary(path, *refPath, *newPath, *tolerance, ref, cur, rows); err != nil {
			fmt.Fprintln(stderr, "perfgate: step summary:", err)
		}
	}
	if failed > 0 {
		fmt.Fprintf(stderr, "perfgate: %d of %d gated ratios regressed more than %.0f%% (ref %s, %s; new %s, %s)\n",
			failed, len(keys), *tolerance*100, *refPath, ref.Machine, *newPath, cur.Machine)
		return 1
	}
	fmt.Fprintf(stdout, "perfgate: %d ratios within %.0f%% of %s\n", len(keys), *tolerance*100, *refPath)
	return 0
}

// gateRow is one gated ratio's comparison, kept for the job summary.
type gateRow struct {
	key      string
	ref, cur float64
	reg      float64
	verdict  string
}

// appendSummary appends the comparison as a markdown table to the file
// GitHub Actions names in $GITHUB_STEP_SUMMARY (always appended: gate
// steps for several records share one summary file).
func appendSummary(path, refPath, newPath string, tolerance float64, ref, cur bench, rows []gateRow) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	writeSummary(f, refPath, newPath, tolerance, ref, cur, rows)
	return f.Close()
}

func writeSummary(w io.Writer, refPath, newPath string, tolerance float64, ref, cur bench, rows []gateRow) {
	fmt.Fprintf(w, "### perfgate: %s vs %s\n\n", refPath, newPath)
	fmt.Fprintf(w, "Reference %s (%s); new %s (%s); tolerance %.0f%%.\n\n",
		ref.Machine, ref.Date, cur.Machine, cur.Date, tolerance*100)
	fmt.Fprintln(w, "| ratio | reference | new | regression | verdict |")
	fmt.Fprintln(w, "|---|---:|---:|---:|---|")
	for _, r := range rows {
		if r.verdict == "MISSING" {
			fmt.Fprintf(w, "| `%s` | — | — | — | ❌ %s |\n", r.key, r.verdict)
			continue
		}
		mark := "✅"
		if r.verdict != "ok" {
			mark = "❌"
		}
		fmt.Fprintf(w, "| `%s` | %.4f | %.4f | %+.1f%% | %s %s |\n",
			r.key, r.ref, r.cur, r.reg*100, mark, r.verdict)
	}
	fmt.Fprintln(w)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
