package harness

import (
	"fmt"

	"daredevil/internal/block"
	"daredevil/internal/ftl"
	"daredevil/internal/prof"
	"daredevil/internal/workload"
)

// The profiled comparison grid: every stack under the paper's L+T
// colocation at two T-tenant pressures, each cell streaming its request
// spans into per-layer digests. The per-cell profiles merge — in RunCells
// index-order assembly — into one fleet profile whose bytes are identical
// at any parallelism, the grid-level "where does the time go" view ddbench
// -prof exports and CI archives.

// ProfDemoCell is one profiled grid cell's exports.
type ProfDemoCell struct {
	// Label identifies the cell (stack + tenant mix), usable as a file
	// stem.
	Label string
	// Breakdown is the cell's layer-latency table; SVG its stacked-bar
	// rendering.
	Breakdown []byte
	SVG       []byte
}

// ProfDemo is the profiled grid's full export set.
type ProfDemo struct {
	// Cells holds per-cell artifacts in grid order.
	Cells []ProfDemoCell
	// Merged is the fleet profile — every cell folded together.
	Merged prof.Profile
	// Breakdown, Folded, SVG, and JSON render Merged: the aligned table,
	// flame-graph folded stacks, stacked bars, and canonical JSON.
	Breakdown []byte
	Folded    []byte
	SVG       []byte
	JSON      []byte
}

// profGridSpecs is the demo grid: every stack crossed with two colocation
// shapes — a read-mostly 2L+2T mix on the plain SV-M, and a write-heavy
// 2L+4T mix on an aged FTL-backed SV-M so the fetch, chip, and
// GC-attributed layers all carry mass. Profiling armed throughout.
func profGridSpecs(sc Scale) []CellSpec {
	var specs []CellSpec
	for _, kind := range AllKinds {
		read := CellSpec{
			Machine: SVM(4),
			Kind:    kind,
			Warmup:  sc.Warmup,
			Measure: sc.Measure,
			Profile: true,
		}
		for i := 0; i < 2; i++ {
			read.Jobs = append(read.Jobs, workload.DefaultLTenant("fio-L", i%4))
		}
		for i := 0; i < 2; i++ {
			read.Jobs = append(read.Jobs, workload.DefaultTTenant("fio-T", i%4))
		}
		specs = append(specs, read)

		aged := CellSpec{
			Machine: SVM(4),
			Kind:    kind,
			Warmup:  sc.Warmup,
			Measure: sc.Measure,
			Profile: true,
		}
		fcfg := ftl.DefaultConfig()
		aged.Machine.FTL = &fcfg
		for i := 0; i < 2; i++ {
			aged.Jobs = append(aged.Jobs, workload.DefaultLTenant("fio-L", i%4))
		}
		for i := 0; i < 4; i++ {
			cfg := workload.DefaultTTenant("fio-T", i%4)
			cfg.Pattern = workload.Random
			cfg.ReadPct = 0
			cfg.IODepth = 4
			aged.Jobs = append(aged.Jobs, cfg)
		}
		specs = append(specs, aged)
	}
	return specs
}

// profCellLabel names one grid cell from its spec.
func profCellLabel(spec CellSpec) string {
	l, t := 0, 0
	for _, j := range spec.Jobs {
		if j.Class == block.ClassRT {
			l++
		} else {
			t++
		}
	}
	return fmt.Sprintf("%s-%dL%dT", spec.Kind, l, t)
}

// RunProfDemo runs the profiled comparison grid at the given scale and
// returns per-cell and merged artifacts. Cells fan out over the default
// runner; results and the merged profile are assembled in grid index
// order, and the digest merge is order-independent, so every byte of the
// output is identical at any SetParallelism width.
func RunProfDemo(sc Scale) (ProfDemo, error) {
	specs := profGridSpecs(sc)
	type cellOut struct {
		res  CellResult
		demo ProfDemoCell
	}
	outs := RunCells(len(specs), func(i int) cellOut {
		var out cellOut
		out.res = RunCellSpec(specs[i])
		out.demo.Label = profCellLabel(specs[i])
		return out
	})

	var d ProfDemo
	results := make([]CellResult, len(outs))
	for i, o := range outs {
		results[i] = o.res
		p := o.res.Profile
		if p == nil {
			return d, fmt.Errorf("harness: profiled cell %s returned no profile", o.demo.Label)
		}
		if err := renderAll(
			export{&o.demo.Breakdown, p.WriteBreakdownTable},
			export{&o.demo.SVG, breakdownChart(*p).WriteSVG},
		); err != nil {
			return d, err
		}
		d.Cells = append(d.Cells, o.demo)
	}
	d.Merged, _ = MergeCellProfiles(results)
	err := renderAll(
		export{&d.Breakdown, d.Merged.WriteBreakdownTable},
		export{&d.Folded, d.Merged.WriteFoldedStacks},
		export{&d.SVG, breakdownChart(d.Merged).WriteSVG},
		export{&d.JSON, d.Merged.WriteJSON},
	)
	return d, err
}
