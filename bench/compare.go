package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// savedRun is one run's saved standard output: its header line and its
// final result line.
type savedRun struct {
	workload string
	seed     uint64
	traced   bool
	res      result
}

// parseRun reads a run's standard output.
func parseRun(data []byte) (savedRun, error) {
	var s savedRun
	var last string
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	header := false
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		last = line
		if rest, ok := strings.CutPrefix(line, "bench: "); ok && !header {
			header = true
			for _, kv := range strings.Fields(rest) {
				k, v, _ := strings.Cut(kv, "=")
				switch k {
				case "workload":
					s.workload = v
				case "seed":
					n, err := strconv.ParseUint(v, 10, 64)
					if err != nil {
						return s, fmt.Errorf("bad seed in header %q", line)
					}
					s.seed = n
				case "trace":
					s.traced = v == "1"
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		return s, err
	}
	if !header || s.workload == "" {
		return s, fmt.Errorf("no \"bench: workload=...\" header")
	}
	if err := json.Unmarshal([]byte(last), &s.res); err != nil {
		return s, fmt.Errorf("last line is not a result: %w", err)
	}
	return s, nil
}

// loadRuns reads every untraced run saved under dir; traced runs carry
// per-layer metrics, which have no bound, and are skipped.
func loadRuns(dir string) ([]savedRun, error) {
	var runs []savedRun
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		s, err := parseRun(data)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if !s.traced {
			runs = append(runs, s)
		}
		return nil
	})
	return runs, err
}

// summary is one side's distribution of a metric.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

func summarize(xs []float64) summary {
	q1, q2, q3 := quartiles(xs)
	return summary{N: len(xs), Median: q2, Q1: q1, Q3: q3}
}

// row is the verdict on one (workload, metric).
type row struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Bound    float64 `json:"bound"`
	A        summary `json:"a"`
	B        summary `json:"b"`
	// Change is B's median relative to A's; Won counts pairs B won.
	Change  float64 `json:"change"`
	Won     int     `json:"won"`
	Pairs   int     `json:"pairs"`
	Verdict string  `json:"verdict"`
}

// Verdicts of the paired comparison; judge gives the rule.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	worse      = "worse"
	unresolved = "unresolved"
)

// judge applies the rule to one metric. B improved when it won at least
// nine tenths of the pairs and its median moved by more than A's
// interquartile distance, the right way. B is worse when its median is
// worse than A's by more than the bound. Otherwise, when either side's
// spread (quartile distance over median) exceeds the bound, the result is
// unresolved unless every B run beat every A run; else unchanged.
// moreFailures withholds an improvement when B failed more operations.
func judge(def metricDef, a, b []float64, won, pairs int, moreFailures bool) string {
	sa, sb := summarize(a), summarize(b)
	// sign turns every comparison into lower-is-better.
	sign := 1.0
	if def.Better == "higher" {
		sign = -1
	}
	delta := sign * (sb.Median - sa.Median)
	if !moreFailures && pairs > 0 && 10*won >= 9*pairs && -delta > sa.Q3-sa.Q1 {
		return improved
	}
	if delta > def.Bound*math.Abs(sa.Median) {
		return worse
	}
	spread := max(ratio(sa.Q3-sa.Q1, math.Abs(sa.Median)), ratio(sb.Q3-sb.Q1, math.Abs(sb.Median)))
	if spread > def.Bound && !allBetter(a, b, sign) {
		return unresolved
	}
	return unchanged
}

// allBetter reports whether every b beats every a.
func allBetter(a, b []float64, sign float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	worstB, bestA := sign*b[0], sign*a[0]
	for _, x := range b {
		worstB = max(worstB, sign*x)
	}
	for _, x := range a {
		bestA = min(bestA, sign*x)
	}
	return worstB < bestA
}

// compareRuns builds one row per (workload, end-to-end metric) that both
// sides ran. Runs pair up by seed; sides without shared seeds pair in seed
// order.
func compareRuns(spec *benchSpec, runsA, runsB []savedRun) []row {
	var rows []row
	for _, wd := range spec.Workloads {
		a, b := runsOf(runsA, wd.Name), runsOf(runsB, wd.Name)
		if len(a) == 0 || len(b) == 0 {
			continue
		}
		pa, pb := pairRuns(a, b)
		var failedA, failedB int
		for _, s := range a {
			failedA += s.res.Failed
		}
		for _, s := range b {
			failedB += s.res.Failed
		}
		for _, def := range spec.EndToEnd {
			xa, xb := values(a, def.Name), values(b, def.Name)
			won := 0
			for i := range pa {
				va, vb := pa[i].res.Metrics[def.Name].Value, pb[i].res.Metrics[def.Name].Value
				if (def.Better == "higher" && vb > va) || (def.Better != "higher" && vb < va) {
					won++
				}
			}
			ma, mb := summarize(xa), summarize(xb)
			rows = append(rows, row{
				Workload: wd.Name, Metric: def.Name, Unit: def.Unit, Bound: def.Bound,
				A: ma, B: mb, Change: ratio(mb.Median-ma.Median, math.Abs(ma.Median)),
				Won: won, Pairs: len(pa),
				Verdict: judge(def, xa, xb, won, len(pa), failedB > failedA),
			})
		}
		if failedB > failedA {
			rows = append(rows, row{Workload: wd.Name, Metric: "failed", Unit: "count",
				A: summary{N: len(a), Median: float64(failedA)}, B: summary{N: len(b), Median: float64(failedB)},
				Verdict: worse})
		}
	}
	return rows
}

func runsOf(runs []savedRun, workload string) []savedRun {
	var out []savedRun
	for _, s := range runs {
		if s.workload == workload {
			out = append(out, s)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].seed < out[j].seed })
	return out
}

func values(runs []savedRun, metric string) []float64 {
	var xs []float64
	for _, s := range runs {
		if m, ok := s.res.Metrics[metric]; ok {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

func pairRuns(a, b []savedRun) (pa, pb []savedRun) {
	bySeed := map[uint64]savedRun{}
	for _, s := range b {
		if _, ok := bySeed[s.seed]; !ok {
			bySeed[s.seed] = s
		}
	}
	for _, s := range a {
		if t, ok := bySeed[s.seed]; ok {
			pa, pb = append(pa, s), append(pb, t)
			delete(bySeed, s.seed)
		}
	}
	if len(pa) > 0 {
		return pa, pb
	}
	n := min(len(a), len(b))
	return a[:n], b[:n]
}

// runCompare implements `bench compare [-json] A B`.
func runCompare(args []string, stdout, stderr io.Writer) int {
	fset := flag.NewFlagSet("compare", flag.ContinueOnError)
	fset.SetOutput(stderr)
	asJSON := fset.Bool("json", false, "print the rows as JSON with the machine they ran on (the format of bench/baseline.json)")
	if err := fset.Parse(args); err != nil {
		return 2
	}
	if fset.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: bench compare [-json] DIR_A DIR_B")
		return 2
	}
	spec, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	runsA, err := loadRuns(fset.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	runsB, err := loadRuns(fset.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	rows := compareRuns(spec, runsA, runsB)
	if *asJSON {
		doc := map[string]any{
			"num_cpu": runtime.NumCPU(), "go": runtime.Version(), "goarch": runtime.GOARCH,
			"run_seconds": spec.RunSeconds, "rows": rows,
		}
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", data)
	} else {
		writeRows(stdout, rows)
	}
	for _, r := range rows {
		if r.Verdict == worse || r.Verdict == unresolved {
			return 1
		}
	}
	return 0
}

func writeRows(w io.Writer, rows []row) {
	fmt.Fprintf(w, "%-14s %-16s %-34s %-34s %8s %6s %6s  %s\n",
		"workload", "metric", "A median [q1, q3] (n)", "B median [q1, q3] (n)", "change", "won", "bound", "verdict")
	side := func(s summary) string {
		return fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", s.Median, s.Q1, s.Q3, s.N)
	}
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %-16s %-34s %-34s %+7.1f%% %6s %5.0f%%  %s\n",
			r.Workload, r.Metric, side(r.A), side(r.B), 100*r.Change,
			fmt.Sprintf("%d/%d", r.Won, r.Pairs), 100*r.Bound, r.Verdict)
	}
}
