package obs

import (
	"testing"

	"daredevil/internal/sim"
)

func TestSpanLayers(t *testing.T) {
	const us = sim.Microsecond
	at := func(n int) sim.Time { return sim.Time(sim.Duration(n) * us) }
	// ladder is a healthy span: 1us submit, 3us queue+fetch, 5us chip+gc,
	// 1us cqe, 2us delivery.
	ladder := func(fetchCost, gcWait sim.Duration) Span {
		return Span{Issue: at(1), Submit: at(2), Fetch: at(5), Service: at(10),
			CQEPost: at(11), Complete: at(13), FetchCost: fetchCost, GCWait: gcWait}
	}
	cases := []struct {
		name string
		span Span
		// want holds submit, queue_wait, fetch, chip, gc, cqe, delivery.
		want [NumLayers]sim.Duration
	}{
		{"healthy ladder", ladder(us, 2*us),
			[NumLayers]sim.Duration{us, 2 * us, us, 3 * us, 2 * us, us, 2 * us}},
		{"requeued and never fetched again",
			Span{Issue: at(1), Submit: at(6), Fetch: at(5), Service: at(9), CQEPost: at(10),
				Complete: at(20), FetchCost: us, Failed: true},
			[NumLayers]sim.Duration{5 * us, 13 * us, us, 0, 0, 0, 0}},
		{"cancelled while its chip stalled",
			Span{Issue: at(1), Submit: at(2), Fetch: at(5), Service: at(50), Complete: at(20), Failed: true},
			[NumLayers]sim.Duration{us, 3 * us, 0, 15 * us, 0, 0, 0}},
		{"dropped CQE",
			Span{Issue: at(1), Submit: at(2), Fetch: at(5), Service: at(10), Deliver: at(29), Complete: at(30)},
			[NumLayers]sim.Duration{us, 3 * us, 0, 5 * us, 0, 20 * us, 0}},
		{"fetch cost exceeds the queue window", ladder(10*us, 0),
			[NumLayers]sim.Duration{us, 0, 3 * us, 5 * us, 0, us, 2 * us}},
		{"GC wait exceeds the chip window", ladder(0, 9*us),
			[NumLayers]sim.Duration{us, 3 * us, 0, 0, 5 * us, us, 2 * us}},
		{"issued at time zero",
			Span{Issue: 0, Submit: at(1), Fetch: at(2), Service: at(3), CQEPost: at(4), Complete: at(5)},
			[NumLayers]sim.Duration{us, us, 0, us, 0, us, us}},
		{"never completed", Span{Issue: at(1), Submit: at(2), Fetch: at(5)},
			[NumLayers]sim.Duration{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.span.Layers()
			if got != tc.want {
				t.Errorf("layers = %v, want %v", got, tc.want)
			}
			var sum sim.Duration
			for l, d := range got {
				if d < 0 {
					t.Errorf("layer %s = %v, negative", Layer(l), d)
				}
				sum += d
			}
			if total := tc.span.Total(); sum != total {
				t.Errorf("layers sum to %v, total is %v", sum, total)
			}
		})
	}
	sp := ladder(us, 2*us)
	if allocs := testing.AllocsPerRun(100, func() { sp.Layers() }); allocs != 0 {
		t.Fatalf("Layers allocates %.0f times per call", allocs)
	}
}
