package bench

import "fmt"

// Workload is one served traffic mix. All four run one partition, one
// ingest connection and one read connection (two vCPUs, shared with the
// generator: more connections or partitions would measure the
// scheduler), one row per batch, batch IDs strictly increasing.
type Workload struct {
	Name string
	// App is the bench/apps application benchd serves.
	App string
	// Log is benchd's -log for the served run.
	Log string
	// PacedRate is the open-loop phase's fixed rate in batches/s, well
	// below the workload's saturation rate so the queue does not grow.
	PacedRate int
	// ReadRate is the read connection's fixed rate in reads/s, the same
	// in every phase, so the read/write mix is the same on every commit.
	// It is 200 except where a read waits for a group commit (a read-only
	// Call is logged like any TE) and 200/s would exceed what one
	// partition can commit.
	ReadRate int
	// WarmBatches is the unmeasured warm-up's length: a count, not a
	// time, so the server's state at the start of the measured phases
	// does not depend on how fast the commit is. voter-hybrid's also
	// runs until the five eliminations are over.
	WarmBatches int
	// Preload is the rows loaded through the front door during set-up.
	Preload int
	// ArchiveBudget is the buffer-pool budget for archive tables.
	ArchiveBudget int64
	// RecoveryBatches is the length of the fixed, seed-determined
	// command log recovery_s is measured over. It never depends on the
	// run's own throughput.
	RecoveryBatches int
}

// Workloads lists the four workloads in reporting order; why each
// exists is written in BENCHMARK.json and bench/README.md.
//
// The ISSUE sized history-spill at 300k rows over a 16 MiB pool; the
// driver's time cap leaves about 30 s a run, so both shrink by four
// (the 5× ratio of table to pool is what matters) and set-up, which
// runs three times a run, stays near half a second.
var Workloads = []Workload{
	{Name: "sensor-mem", App: "sensor", Log: "none", PacedRate: 2000, ReadRate: 200, WarmBatches: 50000, Preload: sensors, RecoveryBatches: 20000},
	{Name: "sensor-durable", App: "sensor", Log: "group", PacedRate: 50, ReadRate: 20, WarmBatches: 200, Preload: sensors, RecoveryBatches: 20000},
	{Name: "voter-hybrid", App: "voter", Log: "none", PacedRate: 1000, ReadRate: 200, WarmBatches: 20000, RecoveryBatches: 4000},
	{Name: "history-spill", App: "history", Log: "none", PacedRate: 1000, ReadRate: 200, WarmBatches: 50000, Preload: 75000, ArchiveBudget: 4 << 20, RecoveryBatches: 20000},
}

// LookupWorkload finds a workload by name.
func LookupWorkload(name string) (Workload, error) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("unknown workload %q", name)
}
