// Package args is the hotpathalloc bind-site fixture: bind sites of the
// argument-carrying continuation protocol (sim.Engine AtArg/AfterArg/
// AfterTimerArg and cpus.Work{ArgFn, Arg}) in the shapes the rule allows
// and the shapes it must flag, cold and hot.
package args

import (
	"daredevil/internal/cpus"
	"daredevil/internal/sim"
)

type dev struct {
	eng    *sim.Engine
	onDone func(any)              // continuation pre-bound at construction
	tickFn func(any) sim.Duration // ditto for cpus work
	id     int
	stats  [4]uint64
}

// onDoneFree is a package-level continuation: always fine to bind.
func onDoneFree(any) {}

func (d *dev) handle(any) {}

func (d *dev) tick(any) sim.Duration { return 0 }

// bindClean covers every sanctioned shape: field func values, package
// functions, non-capturing literals, pointer-shaped and nil args.
func (d *dev) bindClean(t sim.Time) {
	d.eng.AtArg(t, d.onDone, d)
	d.eng.AtArg(t, onDoneFree, d)
	d.eng.AtArg(t, func(any) {}, d)
	d.eng.AfterArg(5, d.onDone, nil)
	d.eng.AfterTimerArg(5, d.onDone, d.eng)
	// The closure-taking variants have no bind-site rule: outside a hot
	// function, binding a capturing closure at At is legal.
	d.eng.At(t, func() { d.id++ })
}

// bindDirty covers the flagged shapes at the engine entry points.
func (d *dev) bindDirty(t sim.Time) {
	d.eng.AtArg(t, func(any) { d.id++ }, d)   // want "capturing closure bound at sim.Engine.AtArg"
	d.eng.AtArg(t, d.handle, d)               // want "method value d.handle bound at sim.Engine.AtArg"
	d.eng.AfterArg(5, d.onDone, d.id)         // want "non-pointer-shaped type int"
	d.eng.AfterTimerArg(5, d.onDone, d.stats) // want "non-pointer-shaped type"
}

// workClean builds cpus.Work the sanctioned way: pre-bound ArgFn field,
// receiver through Arg.
func (d *dev) workClean() cpus.Work {
	return cpus.Work{Cost: 100, Owner: 0, ArgFn: d.tickFn, Arg: d}
}

// workDirty binds a method value and boxes a scalar.
func (d *dev) workDirty() cpus.Work {
	return cpus.Work{
		ArgFn: d.tick, // want "method value d.tick bound at cpus.Work.ArgFn"
		Arg:   d.id,   // want "non-pointer-shaped type int"
	}
}

// workPositional exercises the positional-literal path.
func (d *dev) workPositional() cpus.Work {
	return cpus.Work{100, 0, nil, d.tick, d.id} // want "method value d.tick bound at cpus.Work.ArgFn" "non-pointer-shaped type int"
}

// workSuppressed keeps a deliberate violation behind an allow directive.
func (d *dev) workSuppressed() cpus.Work {
	return cpus.Work{
		Arg: d.id, //lint:ddvet:allow hotpathalloc fixture-sanctioned boxed scalar exercising the suppression path
	}
}

// fire is a hot root binding faults that both rules match: the capturing
// closures are hot-path closures and the scalar arg is boxed into any on
// the hot path. Each is reported once, by the bind-site rule.
//
//ddvet:hotpath
func (d *dev) fire() cpus.Work {
	d.eng.AfterArg(5, func(any) { d.id++ }, d.stats) // want "capturing closure bound at sim.Engine.AfterArg" "non-pointer-shaped type"
	return cpus.Work{
		ArgFn: func(any) sim.Duration { return sim.Duration(d.id) }, // want "capturing closure bound at cpus.Work.ArgFn"
		Arg:   d,
	}
}
