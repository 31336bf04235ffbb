// Package virtio implements the paper's §8.1 future-work sketch: extending
// Daredevil to virtual machines. Applications inside a guest are invisible
// to the host kernel, so the host cannot classify their requests. The
// proposed design gives the guest a decoupled virtio stack — each virtqueue
// (VQ) serves requests of one SLA — and has hypervisor and host maintain
// VQ→NQ mappings whose I/O service is consistent with that SLA.
//
// Two guest modes are modeled:
//
//   - GuestMixed: the standard virtio-blk layout, one VQ per vCPU; L- and
//     T-requests of co-located guest tenants share VQs, and the host sees
//     one opaque stream per VQ.
//   - GuestDecoupled: VQs are split into SLA groups (the §8.1 proposal);
//     the guest routes by ionice class, and each VQ's host-side proxy
//     tenant carries the matching class, so a Daredevil host keeps the
//     separation end-to-end.
package virtio

import (
	"fmt"

	"daredevil/internal/block"
	"daredevil/internal/cpus"
	"daredevil/internal/sim"
)

// GuestMode selects the guest virtio stack layout.
type GuestMode uint8

// Guest modes.
const (
	// GuestMixed is vanilla virtio-blk: per-vCPU VQs, classes intermixed.
	GuestMixed GuestMode = iota
	// GuestDecoupled assigns each VQ one SLA and routes by class (§8.1).
	GuestDecoupled
)

// String names the mode.
func (m GuestMode) String() string {
	if m == GuestMixed {
		return "guest-mixed"
	}
	return "guest-decoupled"
}

// Config describes the VM and its virtio costs.
type Config struct {
	Mode GuestMode
	// VQs is the virtqueue count (per-vCPU in GuestMixed; split evenly
	// between SLAs in GuestDecoupled).
	VQs int
	// HostCore is the first host core running the hypervisor's VQ workers
	// (worker i runs on HostCore+i, wrapped over the pool).
	HostCore int
	// NotifyCost models the guest→host kick (vmexit + doorbell).
	NotifyCost sim.Duration
	// ForwardCost is the hypervisor's per-request handling cost.
	ForwardCost sim.Duration
	// CompleteCost is the host→guest completion injection cost.
	CompleteCost sim.Duration
}

// DefaultConfig returns virtio costs in the common software-virtio range.
func DefaultConfig(mode GuestMode, vqs int) Config {
	return Config{
		Mode: mode, VQs: vqs,
		NotifyCost:   4 * sim.Microsecond,
		ForwardCost:  1500 * sim.Nanosecond,
		CompleteCost: 2 * sim.Microsecond,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.VQs <= 0 {
		return fmt.Errorf("virtio: VQs must be positive")
	}
	if c.Mode == GuestDecoupled && c.VQs < 2 {
		return fmt.Errorf("virtio: GuestDecoupled needs >= 2 VQs to form SLA groups")
	}
	return nil
}

// vq is one virtqueue with its host-side proxy tenant.
type vq struct {
	id      int
	proxy   *block.Tenant
	pending []*block.Request
	busy    bool
}

// VM is a guest whose tenants issue I/O through virtqueues into the host
// storage stack.
type VM struct {
	cfg   Config
	eng   *sim.Engine
	pool  *cpus.Pool
	stack block.Stack
	vqs   []*vq

	// Forwarded counts requests handed to the host stack.
	Forwarded uint64
}

// New builds a VM on the host environment. Each VQ gets a host proxy
// tenant; under GuestDecoupled the first half of the VQs is the
// latency-sensitive group and their proxies carry real-time ionice, making
// the VQ→NQ mapping SLA-consistent on a Daredevil host.
func New(eng *sim.Engine, pool *cpus.Pool, stack block.Stack, cfg Config) *VM {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	vm := &VM{cfg: cfg, eng: eng, pool: pool, stack: stack}
	for i := 0; i < cfg.VQs; i++ {
		class := block.ClassBE
		if cfg.Mode == GuestDecoupled && i < cfg.VQs/2 {
			class = block.ClassRT
		}
		proxy := &block.Tenant{
			ID:    9000 + i,
			Name:  fmt.Sprintf("virtio-vq%d", i),
			Class: class,
			Core:  (cfg.HostCore + i) % pool.N(),
		}
		stack.Register(proxy)
		vm.vqs = append(vm.vqs, &vq{id: i, proxy: proxy})
	}
	return vm
}

// NumVQs reports the virtqueue count.
func (vm *VM) NumVQs() int { return len(vm.vqs) }

// VQClass reports the SLA class VQ i serves on the host side.
func (vm *VM) VQClass(i int) block.Class { return vm.vqs[i].proxy.Class }

// route picks the VQ for a guest tenant's request.
func (vm *VM) route(guest *block.Tenant, rq *block.Request) *vq {
	switch vm.cfg.Mode {
	case GuestDecoupled:
		half := len(vm.vqs) / 2
		if block.PrioOf(guest.Class) == block.PrioHigh || rq.Flags.Outlier() {
			return vm.vqs[guest.Core%half]
		}
		return vm.vqs[half+guest.Core%(len(vm.vqs)-half)]
	default:
		return vm.vqs[guest.Core%len(vm.vqs)]
	}
}

// Name identifies the VM front-end; VM implements block.Stack so guest
// workloads drive it like any storage stack.
func (vm *VM) Name() string { return "virtio-" + vm.cfg.Mode.String() }

// Register is a no-op: guest tenants are invisible to the host; only the
// per-VQ proxies (registered at construction) exist host-side.
func (vm *VM) Register(t *block.Tenant) {}

// SetIonice records the guest-side class; routing reacts on the next
// request (GuestDecoupled only).
func (vm *VM) SetIonice(t *block.Tenant, c block.Class) { t.Class = c }

// MigrateTenant moves the guest tenant across vCPUs.
func (vm *VM) MigrateTenant(t *block.Tenant, core int) { t.Core = core }

// Submit sends a guest request through its VQ: the guest kick costs
// NotifyCost on the guest's vCPU; the hypervisor worker forwards entries to
// the host stack in order, one at a time per VQ. The guest tenant is
// rq.Tenant.
func (vm *VM) Submit(rq *block.Request) sim.Duration {
	q := vm.route(rq.Tenant, rq)
	q.pending = append(q.pending, rq)
	vm.kick(q)
	return vm.cfg.NotifyCost
}

func (vm *VM) kick(q *vq) {
	if q.busy || len(q.pending) == 0 {
		return
	}
	q.busy = true
	rq := q.pending[0]
	q.pending = q.pending[1:]
	host := vm.pool.Core(q.proxy.Core)
	host.Submit(cpus.Work{
		Cost:  vm.cfg.ForwardCost,
		Owner: q.proxy.ID,
		Fn: func() sim.Duration {
			overhead := vm.forward(q, rq)
			q.busy = false
			vm.kick(q)
			return overhead
		},
	})
}

// forward rewrites the request under the VQ's proxy tenant and submits it
// to the host stack; completion is injected back to the guest with
// CompleteCost on the VQ's host core.
func (vm *VM) forward(q *vq, rq *block.Request) sim.Duration {
	vm.Forwarded++
	guestDone := rq.OnComplete
	hostReq := &block.Request{
		ID: rq.ID, Tenant: q.proxy, Namespace: rq.Namespace,
		Offset: rq.Offset, Size: rq.Size, Op: rq.Op, Flags: rq.Flags,
		IssueTime: rq.IssueTime, NSQ: -1,
	}
	hostReq.OnComplete = func(hr *block.Request) {
		vm.pool.Core(q.proxy.Core).Submit(cpus.Work{
			Cost:  vm.cfg.CompleteCost,
			Owner: q.proxy.ID,
			Fn: func() sim.Duration {
				rq.CQEPostTime = hr.CQEPostTime
				rq.LockWait = hr.LockWait
				rq.CrossCore = hr.CrossCore
				rq.NSQ = hr.NSQ
				rq.OnComplete = guestDone
				rq.Complete(vm.eng.Now())
				return 0
			},
		})
	}
	return vm.stack.Submit(hostReq)
}
