// Package hooks is the obscost fixture: obs hook call sites in functions
// reachable from a //ddvet:hotpath root, exercising both rules. The
// Sprintf-in-Record case is the seeded bug from the acceptance criteria:
// an allocation smuggled into a hook argument must diagnose even though
// the hook itself is nil-safe.
package hooks

import (
	"fmt"

	"daredevil/internal/obs"
	"daredevil/internal/sim"
)

type device struct {
	ring  *obs.Ring
	fl    *obs.Flight
	reg   *obs.Registry
	name  string
	buf   []byte
	depth int
}

// complete is the hot root; everything it reaches is audited.
//
//ddvet:hotpath
func (d *device) complete(now sim.Time, id uint64) {
	d.ring.Record(now, "done", id, 0) // nil-safe hook, scalar args: clean
	d.finish(now, id)
	d.instrument(now, id)
}

// finish carries the seeded bug: Ring.Record is nil-safe, but the Sprintf
// in its argument allocates on every completion whether obs is on or not.
func (d *device) finish(now sim.Time, id uint64) {
	d.ring.Record(now, fmt.Sprintf("done %d", id), id, 0) // want "allocating stdlib call in argument to obs hook"
}

// instrument exercises the nil-guard rule on a hook that does NOT check
// its own receiver (Flight.Ring dereferences f.rings unconditionally, so
// it is not on nilSafeHooks).
func (d *device) instrument(now sim.Time, id uint64) {
	d.fl.Ring("gc") // want "without a nil guard on d.fl"
	if d.fl != nil {
		d.fl.Ring("gc") // enclosing guard: clean
	}
	if fl := d.fl; fl != nil {
		fl.Ring("gc") // init-form guard: clean
	}
	d.guarded(now)
	d.allocShapes(now, id)
}

// guarded uses the early-return guard form: everything after the bail-out
// is dominated by the nil check.
func (d *device) guarded(now sim.Time) {
	if d.fl == nil {
		return
	}
	d.fl.Ring("gc").Record(now, "end", 0, 0) // early-return guard: clean
}

// allocShapes collects the remaining allocation shapes inside hook
// arguments: non-constant concatenation, make, a conversion that copies,
// and a call into a local allocating function. The capturing closure is
// hotpathalloc's finding (its hot fixture pins it), so obscost stays quiet.
func (d *device) allocShapes(now sim.Time, id uint64) {
	d.ring.Record(now, "done-"+d.name, id, 0)                // want "string concatenation in argument to obs hook"
	d.ring.Record(now, "prefix"+"-const", id, 0)             // folded at compile time: clean
	d.ring.Record(now, "k", uint64(len(make([]byte, 8))), 0) // want "make call in argument to obs hook"
	d.ring.Record(now, string(d.buf), id, 0)                 // want "string/..byte conversion in argument to obs hook"
	d.ring.Record(now, d.format(id), id, 0)                  // want "call to an allocating function in argument to obs hook"
	d.ring.Record(now, "k", uint64(sim.Duration(now)), 0)    // scalar conversions: clean
	if d.reg != nil {
		d.reg.Register("depth", func() float64 { return float64(d.depth) })
	}
}

// format allocates (flow summary), so passing its result into a hook
// argument on the hot path is flagged at the call site.
func (d *device) format(id uint64) string {
	return fmt.Sprintf("%d", id)
}

// cold is not reachable from any hot root: obscost leaves it alone even
// though the same Sprintf shape appears.
func (d *device) cold(now sim.Time, id uint64) {
	d.ring.Record(now, fmt.Sprintf("cold %d", id), id, 0)
	d.fl.Ring("cold")
}

// suppressedRoot keeps a deliberate violation behind an allow directive.
//
//ddvet:hotpath
func (d *device) suppressedRoot(now sim.Time, id uint64) {
	d.fl.Ring("dbg") //lint:ddvet:allow obscost fixture-sanctioned unguarded hook exercising the suppression path
}
