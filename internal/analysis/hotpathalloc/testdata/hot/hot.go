// Package hot is a golden fixture for hotpathalloc: a directive-marked root,
// a callee reached transitively from it, allocation shapes that are flagged
// on the hot path, the same shapes unflagged in cold code, and a justified
// suppression.
package hot

import "daredevil/internal/obs"

type sink interface{ accept(any) }

var out sink

// step is the marked hot root; helper is pulled in transitively.
//
//ddvet:hotpath
func step(xs []int, n int) []int {
	for i := 0; i < n; i++ {
		xs = append(xs, i) // want "append inside a loop on hot path"
	}
	cb := func() int { return n } // want "closure on hot path .* captures n"
	_ = cb
	pre := func() int { return 0 } // non-capturing: fine
	_ = pre
	helper(n)
	return xs
}

func helper(n int) {
	out.accept(n) // want "value of type int boxed"
}

// cold is unmarked and unreachable from step: same shapes, no findings.
func cold(xs []int, n int) []int {
	for i := 0; i < n; i++ {
		xs = append(xs, i)
	}
	cb := func() int { return n }
	_ = cb
	out.accept(n)
	return xs
}

// drain shows the two sanctioned escapes: panics are exempt by
// construction, and a documented allocation rides on an allow directive.
//
//ddvet:hotpath
func drain(n int) {
	if n < 0 {
		panic("negative") // panic args are exempt: fine
	}
	out.accept(n) //lint:ddvet:allow hotpathalloc amortized over the whole batch, not per event
}

// gauges binds a capturing closure into an obs hook argument on the hot
// path: hotpathalloc owns the finding (obscost checks the other argument
// shapes and stays quiet on this one).
type gauges struct {
	reg   *obs.Registry
	depth int
}

//ddvet:hotpath
func (g *gauges) register() {
	if g.reg != nil {
		g.reg.Register("depth", func() float64 { return float64(g.depth) }) // want "closure on hot path .in register. captures g"
	}
}
