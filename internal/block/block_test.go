package block

import (
	"testing"
	"testing/quick"

	"daredevil/internal/sim"
)

func TestClassAndPrioStrings(t *testing.T) {
	if ClassRT.String() != "L" || ClassBE.String() != "T" {
		t.Fatal("class strings wrong")
	}
	if PrioHigh.String() != "high" || PrioLow.String() != "low" {
		t.Fatal("prio strings wrong")
	}
	if OpRead.String() != "read" || OpWrite.String() != "write" {
		t.Fatal("op strings wrong")
	}
}

func TestPrioOf(t *testing.T) {
	if PrioOf(ClassRT) != PrioHigh {
		t.Fatal("RT must map to high priority")
	}
	if PrioOf(ClassBE) != PrioLow {
		t.Fatal("BE must map to low priority")
	}
}

func TestFlags(t *testing.T) {
	var f Flags
	if f.Sync() || f.Meta() || f.Outlier() {
		t.Fatal("zero flags must be clear")
	}
	f = FlagSync
	if !f.Sync() || f.Meta() || !f.Outlier() {
		t.Fatal("sync flag handling wrong")
	}
	f = FlagMeta
	if f.Sync() || !f.Meta() || !f.Outlier() {
		t.Fatal("meta flag handling wrong")
	}
	f = FlagSync | FlagMeta
	if !f.Outlier() {
		t.Fatal("combined flags must be outlier")
	}
}

func TestTenantString(t *testing.T) {
	ten := &Tenant{ID: 3, Name: "fio", Class: ClassBE, Core: 2, Namespace: 1}
	if ten.String() != "fio#3(T,core2,ns1)" {
		t.Fatalf("String() = %q", ten.String())
	}
}

func TestRequestLatency(t *testing.T) {
	rq := &Request{IssueTime: 100, CompleteTime: 350}
	if rq.Latency() != 250 {
		t.Fatalf("Latency = %v, want 250", rq.Latency())
	}
}

func TestCompleteFiresCallback(t *testing.T) {
	fired := 0
	rq := &Request{OnComplete: func(r *Request) { fired++ }}
	rq.Complete(500)
	if fired != 1 {
		t.Fatalf("OnComplete fired %d times, want 1", fired)
	}
	if rq.CompleteTime != 500 {
		t.Fatalf("CompleteTime = %v, want 500", rq.CompleteTime)
	}
}

func TestSplitNoOpWhenSmall(t *testing.T) {
	rq := &Request{Size: 4096}
	id := uint64(100)
	parts := rq.Split(131072, func() uint64 { id++; return id })
	if len(parts) != 1 || parts[0] != rq {
		t.Fatal("small request must not split")
	}
	if rq.IsSplitChild() {
		t.Fatal("unsplit request must not be a child")
	}
}

func TestSplitSizesAndOffsets(t *testing.T) {
	rq := &Request{Offset: 1000, Size: 300, Op: OpWrite, Flags: FlagSync, Prio: PrioLow}
	id := uint64(0)
	parts := rq.Split(128, func() uint64 { id++; return id })
	if len(parts) != 3 {
		t.Fatalf("got %d parts, want 3", len(parts))
	}
	wantSizes := []int64{128, 128, 44}
	off := int64(1000)
	for i, p := range parts {
		if p.Size != wantSizes[i] {
			t.Fatalf("part %d size = %d, want %d", i, p.Size, wantSizes[i])
		}
		if p.Offset != off {
			t.Fatalf("part %d offset = %d, want %d", i, p.Offset, off)
		}
		if p.Op != OpWrite || !p.Flags.Sync() || p.Prio != PrioLow {
			t.Fatal("split children must inherit op/flags/prio")
		}
		if !p.IsSplitChild() {
			t.Fatal("child must report IsSplitChild")
		}
		off += p.Size
	}
}

func TestSplitParentCompletesLast(t *testing.T) {
	done := false
	rq := &Request{Size: 256, OnComplete: func(r *Request) { done = true }}
	id := uint64(0)
	parts := rq.Split(128, func() uint64 { id++; return id })
	parts[0].Complete(10)
	if done {
		t.Fatal("parent completed before all children")
	}
	if rq.PendingChildren() != 1 {
		t.Fatalf("PendingChildren = %d, want 1", rq.PendingChildren())
	}
	parts[1].Complete(20)
	if !done {
		t.Fatal("parent did not complete after last child")
	}
	if rq.CompleteTime != 20 {
		t.Fatalf("parent CompleteTime = %v, want 20 (last child)", rq.CompleteTime)
	}
}

func TestSplitPropagatesWorstLockWaitAndCrossCore(t *testing.T) {
	rq := &Request{Size: 256}
	id := uint64(0)
	parts := rq.Split(128, func() uint64 { id++; return id })
	parts[0].LockWait = 50
	parts[0].Complete(10)
	parts[1].LockWait = 20
	parts[1].CrossCore = true
	parts[1].Complete(20)
	if rq.LockWait != 50 {
		t.Fatalf("parent LockWait = %v, want 50 (max of children)", rq.LockWait)
	}
	if !rq.CrossCore {
		t.Fatal("parent must inherit CrossCore from any child")
	}
}

func TestSplitPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Split(0) must panic")
		}
	}()
	(&Request{Size: 10}).Split(0, func() uint64 { return 0 })
}

// Property: splitting preserves total size, covers the range contiguously,
// and every child is within the limit.
func TestSplitCoverageProperty(t *testing.T) {
	prop := func(sizeRaw uint32, maxRaw uint16, offRaw uint32) bool {
		size := int64(sizeRaw%(1<<20)) + 1
		max := int64(maxRaw%4096) + 1
		off := int64(offRaw)
		rq := &Request{Offset: off, Size: size}
		id := uint64(0)
		parts := rq.Split(max, func() uint64 { id++; return id })
		var total int64
		expectOff := off
		for _, p := range parts {
			if p.Size <= 0 || p.Size > max {
				return false
			}
			if p.Offset != expectOff {
				return false
			}
			expectOff += p.Size
			total += p.Size
		}
		return total == size
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: the parent completes exactly once, only after all children, for
// any completion order.
func TestSplitCompletionOrderProperty(t *testing.T) {
	prop := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%10) + 2
		rq := &Request{Size: int64(n) * 128}
		completions := 0
		rq.OnComplete = func(r *Request) { completions++ }
		id := uint64(0)
		parts := rq.Split(128, func() uint64 { id++; return id })
		perm := sim.NewRand(seed).Perm(len(parts))
		for i, idx := range perm {
			parts[idx].Complete(sim.Time(i))
			if i < len(perm)-1 && completions != 0 {
				return false
			}
		}
		return completions == 1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
