package harness

import (
	"daredevil/internal/stats"
	"daredevil/internal/workload"
)

// The workloads that ride a cell as AuxApps: Figure 12's YCSB-driven KV
// store and mailserver (shared with the public Simulation facade), and
// startHook for drivers that only schedule work at start.

// KVApp is a RocksDB-like store driven by closed-loop YCSB clients.
type KVApp struct {
	kv      *workload.KV
	drivers []*workload.YCSB
	// ops0 is the client operation count at the warmup boundary.
	ops0 uint64
}

// NewKVApp builds the store with tenant IDs id (foreground, on core) and
// id+1 (background flush thread, on bgCore), driven by clients YCSB clients
// seeded seed, seed+1, ... The app starts when its cell runs.
func NewKVApp(kind workload.YCSBKind, id, core, bgCore, clients int, seed uint64) *KVApp {
	kv := workload.NewKV(id, workload.DefaultKVConfig("rocksdb", core))
	kv.BGTenant.Core = bgCore
	a := &KVApp{kv: kv}
	for i := 0; i < clients; i++ {
		a.drivers = append(a.drivers, workload.NewYCSB(kind, kv, seed+uint64(i)))
	}
	return a
}

// Start registers the store's threads, then starts the clients.
func (a *KVApp) Start(env *Env) {
	a.kv.Start(env.Eng, env.Pool, env.Stack)
	for _, d := range a.drivers {
		d.Start(env.Eng)
	}
}

// Reset clears the per-op latencies at the warmup boundary.
func (a *KVApp) Reset() {
	a.kv.ResetStats()
	a.ops0 = a.Ops()
}

// OpLatency reports the latency distribution of one operation type since
// warmup.
func (a *KVApp) OpLatency(op workload.OpType) stats.Snapshot {
	return opLatency(a.kv.OpLat, op)
}

// Ops reports completed client operations.
func (a *KVApp) Ops() uint64 {
	var n uint64
	for _, d := range a.drivers {
		n += d.Ops
	}
	return n
}

// MailApp is the Filebench-Mailserver workload.
type MailApp struct {
	mail *workload.Mail
	ops0 uint64
}

// NewMailApp builds the mailserver with tenant ID id on core.
func NewMailApp(id, core int) *MailApp {
	return &MailApp{mail: workload.NewMail(id, workload.DefaultMailConfig("mailserver", core))}
}

// Start registers the tenant and begins the operation stream.
func (a *MailApp) Start(env *Env) { a.mail.Start(env.Eng, env.Pool, env.Stack) }

// Reset clears the per-op latencies at the warmup boundary.
func (a *MailApp) Reset() {
	a.mail.ResetStats()
	a.ops0 = a.mail.Ops
}

// OpLatency reports the latency distribution of one operation type since
// warmup (OpFsync, OpDelete, or OpCache).
func (a *MailApp) OpLatency(op workload.OpType) stats.Snapshot {
	return opLatency(a.mail.OpLat, op)
}

func opLatency(lat map[workload.OpType]*stats.Histogram, op workload.OpType) stats.Snapshot {
	if h, ok := lat[op]; ok {
		return h.Snapshot()
	}
	return stats.Snapshot{}
}

// startHook is an AuxApp with nothing to reset: a driver (migrator, ionice
// updater) scheduled when the cell starts.
type startHook func(*Env)

func (f startHook) Start(env *Env) { f(env) }
func (startHook) Reset()           {}
