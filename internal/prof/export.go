package prof

import (
	"encoding/json"
	"fmt"
	"io"
	"text/tabwriter"

	"daredevil/internal/sim"
)

// WriteBreakdownTable renders the paper's "where does the time go" view:
// one row per (stack, class, layer) with counts, the layer's share of the
// group's total latency mass, and its latency distribution. Deterministic:
// groups are already canonically sorted, layers hold a fixed order, and
// every number derives from integer digest state.
func (p Profile) WriteBreakdownTable(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "stack\tclass\tlayer\tcount\tshare\tmean\tp50\tp99\tp99.9\tmax")
	for _, g := range p.Groups {
		var layerSum int64
		for _, l := range g.Layers {
			layerSum += l.Sum
		}
		for _, l := range g.Layers {
			share := 0.0
			if layerSum > 0 {
				share = 100 * float64(l.Sum) / float64(layerSum)
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%.1f%%\t%s\t%s\t%s\t%s\t%s\n",
				g.Stack, g.Class, l.Layer, l.Count, share,
				l.Mean(), l.Quantile(0.50), l.Quantile(0.99), l.Quantile(0.999),
				dur(l.Max))
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t\t%s\t%s\t%s\t%s\t%s\n",
			g.Stack, g.Class, "total", g.Requests,
			g.Total.Mean(), g.Total.Quantile(0.50), g.Total.Quantile(0.99),
			g.Total.Quantile(0.999), dur(g.Total.Max))
	}
	return tw.Flush()
}

// WriteFoldedStacks emits the flame-graph folded-stack form, one line per
// (stack, class, layer) frame path weighted by the layer's total
// nanoseconds — directly consumable by flamegraph.pl and speedscope.
func (p Profile) WriteFoldedStacks(w io.Writer) error {
	for _, g := range p.Groups {
		for _, l := range g.Layers {
			if l.Sum == 0 {
				continue
			}
			if _, err := fmt.Fprintf(w, "%s;%s;%s %d\n", g.Stack, g.Class, l.Layer, l.Sum); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteJSON serializes the profile canonically (indented, fixed field and
// group order) — the artifact ddserve stores per run and the form host
// tooling merges.
func (p Profile) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p)
}

// ParseProfile reads a profile serialized by WriteJSON and validates its
// digests.
func ParseProfile(data []byte) (Profile, error) {
	var p Profile
	if err := json.Unmarshal(data, &p); err != nil {
		return Profile{}, err
	}
	for _, g := range p.Groups {
		if !g.Total.Valid() {
			return Profile{}, fmt.Errorf("prof: invalid total digest in group %s/%s", g.Stack, g.Class)
		}
		for _, l := range g.Layers {
			if !l.Valid() {
				return Profile{}, fmt.Errorf("prof: invalid %s digest in group %s/%s", l.Layer, g.Stack, g.Class)
			}
		}
	}
	return p, nil
}

// dur renders a raw nanosecond count with the sim duration formatting used
// across exports.
func dur(ns int64) string { return sim.Duration(ns).String() }
