package nvme

import (
	"fmt"
	"testing"

	"daredevil/internal/block"
	"daredevil/internal/cpus"
	"daredevil/internal/sim"
)

// refArbiter is the modulo scan the ready bitmaps replaced: it probes
// every NSQ from the cursor's successor, wrapping, and keeps its own copy
// of the cursors and WRR credits.
type refArbiter struct {
	rr        int
	classRR   [numClasses]int
	wrrClass  int
	wrrCredit int
}

func (r *refArbiter) nextRR(d *Device) *NSQ {
	n := len(d.nsqs)
	for i := 1; i <= n; i++ {
		q := d.nsqs[(r.rr+i)%n]
		if q.visible > 0 {
			r.rr = q.ID
			return q
		}
	}
	return nil
}

func (r *refArbiter) scanClass(d *Device, c QueueClass) *NSQ {
	n := len(d.nsqs)
	for i := 1; i <= n; i++ {
		q := d.nsqs[(r.classRR[c]+i)%n]
		if q.class == c && q.visible > 0 {
			r.classRR[c] = q.ID
			return q
		}
	}
	return nil
}

func (r *refArbiter) nextWRR(d *Device) *NSQ {
	if q := r.scanClass(d, ClassUrgent); q != nil {
		return q
	}
	for tries := 0; tries < 3; tries++ {
		class := wrrOrder[r.wrrClass]
		if r.wrrCredit > 0 {
			if q := r.scanClass(d, class); q != nil {
				r.wrrCredit--
				return q
			}
		}
		r.wrrClass = (r.wrrClass + 1) % len(wrrOrder)
		r.wrrCredit = d.weightOf(wrrOrder[r.wrrClass])
	}
	return nil
}

// checkReadyBits reports the first NSQ whose ready bits disagree with its
// visible count and class.
func checkReadyBits(d *Device) error {
	for _, q := range d.nsqs {
		w, bit := q.ID>>6, uint64(1)<<(q.ID&63)
		if got, want := d.ready[w]&bit != 0, q.visible > 0; got != want {
			return fmt.Errorf("NSQ %d (visible %d): ready bit %v", q.ID, q.visible, got)
		}
		for c := range d.classReady {
			if got, want := d.classReady[c][w]&bit != 0, q.visible > 0 && q.class == QueueClass(c); got != want {
				return fmt.Errorf("NSQ %d (visible %d, class %v): class %v ready bit %v",
					q.ID, q.visible, q.class, QueueClass(c), got)
			}
		}
	}
	return nil
}

// arbitrationDevice builds a device of n NSQs whose fetch engine never
// starts on its own: the in-flight window is already full, so every pick
// is the caller's.
func arbitrationDevice(n int, arb Arbitration) *Device {
	cfg := testConfig()
	cfg.NumNSQ, cfg.NumNCQ = n, 1
	cfg.MaxInflight = 1
	cfg.Arbitration = arb
	eng := sim.New()
	d := New(eng, cpus.NewPool(eng, 1, cpus.Config{}), cfg)
	d.inflight = cfg.MaxInflight
	return d
}

// FuzzArbitration drives random enqueue, doorbell, class, reset and fetch
// sequences through the real NSQ paths under round robin and WRR, at NSQ
// counts on both sides of the one-word bitmap, and checks every pick (and
// the cursors it leaves) against the modulo scan, and the ready bits
// against the queues after every step. The tape is read in 2-byte records:
// an opcode and a queue selector.
func FuzzArbitration(f *testing.F) {
	f.Add([]byte{2, 0, 2, 1, 5, 0, 5, 0, 5, 0})
	f.Add([]byte{2, 3, 2, 200, 2, 64, 2, 63, 5, 0, 5, 0, 5, 0, 5, 0, 5, 0})
	f.Add([]byte{0, 5, 0, 5, 4, 5, 2, 9, 0x0f, 9, 0x17, 5, 5, 0, 6, 0, 0xff, 0, 2, 1, 5, 0})
	seq := make([]byte, 0, 256)
	for i := 0; i < 64; i++ {
		seq = append(seq, byte(i*37)&^4, byte(i*67))
		if i%3 == 2 {
			seq = append(seq, 5, 0)
		}
	}
	f.Add(seq)
	ten := &block.Tenant{ID: 1, Core: 0}
	f.Fuzz(func(t *testing.T, data []byte) {
		const maxOps = 512
		if len(data) > 2*maxOps {
			data = data[:2*maxOps]
		}
		for _, n := range []int{1, 63, 64, 65, 128} {
			for _, arb := range []Arbitration{ArbRoundRobin, ArbWeightedRoundRobin} {
				d := arbitrationDevice(n, arb)
				ref := refArbiter{wrrCredit: d.wrrCredit}
				var id uint64
				for tape := data; len(tape) >= 2; tape = tape[2:] {
					op, q := tape[0], d.nsqs[int(tape[1])%n]
					switch op & 7 {
					case 0, 1, 2, 3:
						id++
						rq := &block.Request{ID: id, Tenant: ten, Size: 4096, Op: block.OpRead, NSQ: -1}
						rq.OnComplete = func(*block.Request) {}
						d.Enqueue(d.eng.Now(), q.ID, rq, false)
						if op&2 != 0 {
							d.Ring(q.ID)
						}
					case 4:
						d.Ring(q.ID)
					case 5, 6:
						var want, got *NSQ
						if arb == ArbWeightedRoundRobin {
							want, got = ref.nextWRR(d), d.nextWRR()
						} else {
							want, got = ref.nextRR(d), d.nextRR()
						}
						if got != want {
							t.Fatalf("n=%d arb=%d: picked NSQ %v, the modulo scan picks %v", n, arb, nsqID(got), nsqID(want))
						}
						if d.rr != ref.rr || d.classRR != ref.classRR || d.wrrClass != ref.wrrClass || d.wrrCredit != ref.wrrCredit {
							t.Fatalf("n=%d arb=%d: cursors rr=%d classRR=%v wrr=%d/%d, the modulo scan leaves rr=%d classRR=%v wrr=%d/%d",
								n, arb, d.rr, d.classRR, d.wrrClass, d.wrrCredit, ref.rr, ref.classRR, ref.wrrClass, ref.wrrCredit)
						}
						if got != nil {
							d.fetchBusy, d.fetchQ = true, got
							d.finishFetch()
						}
					case 7:
						if op>>5 == 7 {
							d.controllerReset()
							d.finishReset()
						} else {
							q.SetClass(QueueClass(op >> 3 & 3))
						}
					}
					if err := checkReadyBits(d); err != nil {
						t.Fatalf("n=%d arb=%d after op %#x: %v", n, arb, op, err)
					}
				}
			}
		}
	})
}

func nsqID(q *NSQ) int {
	if q == nil {
		return -1
	}
	return q.ID
}

// BenchmarkArbitration times one round-robin pick over 64 and 128 NSQs
// with 1 or 32 of them holding visible entries, spread evenly.
func BenchmarkArbitration(b *testing.B) {
	for _, n := range []int{64, 128} {
		for _, ready := range []int{1, 32} {
			b.Run(fmt.Sprintf("nsq=%d/ready=%d", n, ready), func(b *testing.B) {
				d := arbitrationDevice(n, ArbRoundRobin)
				ten := &block.Tenant{ID: 1, Core: 0}
				for i := 0; i < ready; i++ {
					rq := &block.Request{ID: uint64(i), Tenant: ten, Size: 4096, Op: block.OpRead, NSQ: -1}
					d.Enqueue(0, i*n/ready, rq, false)
					d.Ring(i * n / ready)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if d.nextRR() == nil {
						b.Fatal("no NSQ picked")
					}
				}
			})
		}
	}
}
