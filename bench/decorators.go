package main

import (
	"daredevil/internal/block"
	"daredevil/internal/flash"
	"daredevil/internal/ftl"
	"daredevil/internal/harness"
	"daredevil/internal/sim"
	"daredevil/internal/stackbase"
	"daredevil/internal/walltime"
)

// The traced run times the two interface seams of a cell: block.Stack
// (every tenant submission) and nvme.FTL (every data command on an aged
// device). Each decorator forwards to the real layer unchanged and sums
// host time and calls into counters, so a traced cell must produce the
// same output bytes as an untraced one; the tests and every traced run
// check that.

// timedStack times Stack.Submit. It forwards RecoveryStats, which
// harness.Env.Recovery reads through a type assertion on Env.Stack.
type timedStack struct {
	block.Stack
	calls  uint64
	hostNs int64
}

func (s *timedStack) Submit(rq *block.Request) sim.Duration {
	sw := walltime.Start()
	d := s.Stack.Submit(rq)
	s.hostNs += int64(sw.Elapsed())
	s.calls++
	return d
}

type recoveryStatser interface {
	RecoveryStats() stackbase.RecoveryStats
}

func (s *timedStack) RecoveryStats() stackbase.RecoveryStats {
	if rs, ok := s.Stack.(recoveryStatser); ok {
		return rs.RecoveryStats()
	}
	return stackbase.RecoveryStats{}
}

// timedFTL times FTL.SubmitIO. Embedding the device forwards Trim and the
// ForegroundGCCount/ForegroundGCStall pair nvme reads for span attribution.
type timedFTL struct {
	*ftl.Device
	calls  uint64
	hostNs int64
}

func (f *timedFTL) SubmitIO(now sim.Time, offset, size int64, op flash.Op) sim.Time {
	sw := walltime.Start()
	t := f.Device.SubmitIO(now, offset, size, op)
	f.hostNs += int64(sw.Elapsed())
	f.calls++
	return t
}

// decorate installs both decorators on a built, not yet run, cell.
func decorate(c *harness.Cell) (*timedStack, *timedFTL) {
	st := &timedStack{Stack: c.Env.Stack}
	c.Env.Stack = st
	var tf *timedFTL
	if c.Env.FTL != nil {
		tf = &timedFTL{Device: c.Env.FTL}
		c.Env.Dev.AttachFTL(tf)
	}
	return st, tf
}
