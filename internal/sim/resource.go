package sim

// FIFORes models a resource that admits one holder at a time and grants
// waiters in arrival order — a spinlock around NVMe submission-queue entries,
// or a flash channel bus during a page transfer. Because the simulation is
// single-threaded, "waiting" is expressed as a computed grant time rather
// than actual blocking: the caller learns when it would have acquired the
// resource and charges that wait to whatever it models (e.g. CPU busy time).
type FIFORes struct {
	freeAt Time
}

// Acquire requests the resource at instant now for hold time hold. It
// returns the instant the resource is granted and the wait endured
// (grant - now). hold must be non-negative.
func (r *FIFORes) Acquire(now Time, hold Duration) (grant Time, wait Duration) {
	if hold < 0 {
		panic("sim: negative hold time")
	}
	grant = MaxTime(now, r.freeAt)
	wait = grant.Sub(now)
	r.freeAt = grant.Add(hold)
	return grant, wait
}

// FreeAt reports when the resource next becomes free.
func (r *FIFORes) FreeAt() Time { return r.freeAt }

// Busy reports whether the resource is held at instant now.
func (r *FIFORes) Busy(now Time) bool { return r.freeAt > now }
