package harness

import (
	"bytes"
	"strings"
	"testing"

	"daredevil/internal/sim"
)

func TestExtSchedulersShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment shapes are slow")
	}
	res := RunExtSchedulers(expScale)
	van, _ := res.Cell(Vanilla, 32)
	ky, _ := res.Cell(Kyber, 32)
	dd, _ := res.Cell(DareFull, 32)
	// Both mechanisms defeat vanilla's HOL collapse...
	if van.LOps > 0 {
		if ky.Avg*3 >= van.Avg {
			t.Errorf("kyber avg (%v) should be far below vanilla (%v)", ky.Avg, van.Avg)
		}
		if dd.Avg*3 >= van.Avg {
			t.Errorf("daredevil avg (%v) should be far below vanilla (%v)", dd.Avg, van.Avg)
		}
	}
	// ...with comparable throughput in this simulator (see EXPERIMENTS.md
	// for why throttling is cheap here).
	if ky.TMBps < van.TMBps*0.7 || dd.TMBps < van.TMBps*0.7 {
		t.Errorf("throughputs diverged: kyber %.0f daredevil %.0f vanilla %.0f",
			ky.TMBps, van.TMBps, dd.TMBps)
	}
	var buf bytes.Buffer
	res.WriteText(&buf)
	if !strings.Contains(buf.String(), "kyber") {
		t.Fatal("rendering broken")
	}
}

func TestExtWRRShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment shapes are slow")
	}
	res := RunExtWRR(expScale)
	if len(res.Rows) != 4 {
		t.Fatalf("got %d rows", len(res.Rows))
	}
	var rr, wrr *ExtWRRRow
	for i := range res.Rows {
		if res.Rows[i].TCount != 32 {
			continue
		}
		if res.Rows[i].Arbitration == "round-robin" {
			rr = &res.Rows[i]
		} else {
			wrr = &res.Rows[i]
		}
	}
	if rr == nil || wrr == nil {
		t.Fatal("missing rows")
	}
	// Hardware fetch priority should not hurt, and typically helps.
	if wrr.Avg > rr.Avg*11/10 {
		t.Errorf("WRR avg (%v) worse than RR (%v)", wrr.Avg, rr.Avg)
	}
	var buf bytes.Buffer
	res.WriteText(&buf)
	if !strings.Contains(buf.String(), "weighted-rr") {
		t.Fatal("rendering broken")
	}
}

func TestExtPollingShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment shapes are slow")
	}
	res := RunExtPolling(expScale)
	if len(res.Rows) != 2 {
		t.Fatalf("got %d rows", len(res.Rows))
	}
	irq, poll := res.Rows[0], res.Rows[1]
	if irq.Mode != "interrupts" || poll.Mode != "polled-high-NCQs" {
		t.Fatalf("row order wrong: %+v", res.Rows)
	}
	// At the µs floor polling should be at least as fast on average.
	if poll.Avg > irq.Avg*11/10 {
		t.Errorf("polled avg (%v) worse than interrupts (%v)", poll.Avg, irq.Avg)
	}
	var buf bytes.Buffer
	res.WriteText(&buf)
	if !strings.Contains(buf.String(), "polled-high-NCQs") {
		t.Fatal("rendering broken")
	}
}

func TestExtVirtioShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment shapes are slow")
	}
	res := RunExtVirtio(expScale)
	mixedVan, ok1 := res.Row("guest-mixed", Vanilla)
	mixedDD, ok2 := res.Row("guest-mixed", DareFull)
	decoupled, ok3 := res.Row("guest-decoupled", DareFull)
	if !ok1 || !ok2 || !ok3 {
		t.Fatal("missing combinations")
	}
	// A Daredevil host cannot help a mixed guest...
	ratio := float64(mixedDD.Avg) / float64(mixedVan.Avg)
	if ratio < 0.8 || ratio > 1.2 {
		t.Errorf("mixed guest on daredevil (%v) should match vanilla (%v): host can't see guest SLAs",
			mixedDD.Avg, mixedVan.Avg)
	}
	// ...but per-SLA guest VQs restore the separation.
	if decoupled.Avg*2 >= mixedDD.Avg {
		t.Errorf("decoupled guest (%v) should be well below mixed (%v)", decoupled.Avg, mixedDD.Avg)
	}
	var buf bytes.Buffer
	res.WriteText(&buf)
	if !strings.Contains(buf.String(), "guest-decoupled") {
		t.Fatal("rendering broken")
	}
}

func TestKyberStackKindBuilds(t *testing.T) {
	env := NewEnv(SVM(2), Kyber)
	if env.Stack.Name() != "kyber" {
		t.Fatalf("Name = %q", env.Stack.Name())
	}
}

func TestExtWebappShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment shapes are slow")
	}
	res := RunExtWebapp(Scale{Warmup: 50 * sim.Millisecond, Measure: 300 * sim.Millisecond})
	van, ok1 := res.Row(Vanilla)
	dd, ok2 := res.Row(DareFull)
	if !ok1 || !ok2 {
		t.Fatal("missing rows")
	}
	// Checkpoint bursts must spike the vanilla page loads far above
	// Daredevil's, while checkpoints take comparable time on both.
	if dd.WebAvg*3 >= van.WebAvg {
		t.Errorf("daredevil page avg (%v) should be well below vanilla (%v)", dd.WebAvg, van.WebAvg)
	}
	if van.Checkpoints == 0 || dd.Checkpoints == 0 {
		t.Fatal("no checkpoints completed")
	}
	ratio := float64(dd.CheckpointAvg) / float64(van.CheckpointAvg)
	if ratio > 1.3 {
		t.Errorf("daredevil checkpoint time %v vs vanilla %v: trainer pays too much", dd.CheckpointAvg, van.CheckpointAvg)
	}
	var buf bytes.Buffer
	res.WriteText(&buf)
	if !strings.Contains(buf.String(), "checkpoint avg") {
		t.Fatal("rendering broken")
	}
}
