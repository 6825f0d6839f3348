package experiments

import (
	"fmt"
	"runtime"
	"time"

	"noftl"
	"noftl/internal/metrics"
	"noftl/internal/tpcc"
)

// TPCCScalingRun is one measured TPC-C run of the scaling experiment at a
// fixed worker count.  The virtual-time metrics (TPS, simulated duration)
// are workload-driven and stay put as workers grow; WallTPS is the number
// that must scale.
type TPCCScalingRun struct {
	Workers         int
	Committed       int64
	WallTime        time.Duration
	WallTPS         float64
	TPS             float64 // committed per simulated second
	LockWaits       int64
	LockTimeouts    int64
	WALFlushes      int64
	WALGroupCommits int64
	WALGroupedTxns  int64
}

// TPCCScalingResult is the outcome of the concurrency-scaling experiment:
// the same TPC-C workload executed on fresh, identical databases with 1
// driver goroutine and with N driver goroutines.  Scaling is the wall-clock
// throughput ratio WallTPS(N) / WallTPS(1) — the metric the CI scaling job
// gates (on machines with enough cores to express it).
type TPCCScalingResult struct {
	Scale    Scale
	NumCPU   int
	Baseline TPCCScalingRun // Workers = 1
	Parallel TPCCScalingRun // Workers = N
	Scaling  float64
}

// Table renders the side-by-side comparison.
func (r TPCCScalingResult) Table() string {
	t := metrics.NewTable(
		fmt.Sprintf("TPC-C concurrency scaling (%s scale, %d CPUs)", r.Scale, r.NumCPU),
		"Metric", fmt.Sprintf("%d worker", r.Baseline.Workers), fmt.Sprintf("%d workers", r.Parallel.Workers))
	b, p := r.Baseline, r.Parallel
	t.AddRow("Wall-clock TPS", b.WallTPS, p.WallTPS)
	t.AddRow("Wall-clock time (s)", b.WallTime.Seconds(), p.WallTime.Seconds())
	t.AddRow("Virtual TPS", b.TPS, p.TPS)
	t.AddRow("Committed", b.Committed, p.Committed)
	t.AddRow("Lock waits", b.LockWaits, p.LockWaits)
	t.AddRow("Lock timeouts", b.LockTimeouts, p.LockTimeouts)
	t.AddRow("WAL flushes", b.WALFlushes, p.WALFlushes)
	t.AddRow("WAL group commits", b.WALGroupCommits, p.WALGroupCommits)
	t.AddRow("WAL grouped txns", b.WALGroupedTxns, p.WALGroupedTxns)
	t.AddRow("Wall-clock scaling", 1.0, r.Scaling)
	return t.String()
}

func (r TPCCScalingResult) String() string {
	return fmt.Sprintf("tpcc scaling: %.1f wall tx/s @1 worker -> %.1f wall tx/s @%d workers = %.2fx (on %d CPUs)",
		r.Baseline.WallTPS, r.Parallel.WallTPS, r.Parallel.Workers, r.Scaling, r.NumCPU)
}

// RunTPCCScaling executes the scaling experiment: one TPC-C run with a
// single driver goroutine and one with `workers` goroutines, on fresh
// databases with identical configuration, so the two runs are like for like:
// neither waits on a timer, and the parallel run amortizes log forces only
// through the WAL's automatic group commit (committers that queue behind a
// force share the next one).  The virtual-time multiprogramming level
// (Terminals) is the same in both runs, so the virtual metrics remain
// comparable and only wall-clock parallelism differs.
func RunTPCCScaling(scale Scale, workers int) (TPCCScalingResult, error) {
	if workers < 2 {
		workers = 2
	}
	res := TPCCScalingResult{Scale: scale, NumCPU: runtime.NumCPU()}

	one := func(w int) (TPCCScalingRun, error) {
		setup := TPCCSetup(scale)
		// The logical terminal count must cover the worker count, and must
		// be identical across runs so the virtual-time plane is comparable.
		if setup.TPCC.Terminals < workers {
			setup.TPCC.Terminals = workers
		}
		setup.TPCC.Workers = w
		db, err := noftl.OpenConfig(setup.DB)
		if err != nil {
			return TPCCScalingRun{}, err
		}
		defer db.Close()
		r, err := tpcc.LoadAndRun(db, setup.TPCC)
		if err != nil {
			return TPCCScalingRun{}, err
		}
		return TPCCScalingRun{
			Workers:         r.Workers,
			Committed:       r.Committed,
			WallTime:        r.WallTime,
			WallTPS:         r.WallTPS,
			TPS:             r.TPS,
			LockWaits:       r.LockWaits,
			LockTimeouts:    r.LockTimeouts,
			WALFlushes:      r.WALFlushes,
			WALGroupCommits: r.WALGroupCommits,
			WALGroupedTxns:  r.WALGroupedTxns,
		}, nil
	}

	var err error
	if res.Baseline, err = one(1); err != nil {
		return res, fmt.Errorf("tpcc scaling baseline (1 worker): %w", err)
	}
	if res.Parallel, err = one(workers); err != nil {
		return res, fmt.Errorf("tpcc scaling parallel (%d workers): %w", workers, err)
	}
	if res.Baseline.WallTPS > 0 {
		res.Scaling = res.Parallel.WallTPS / res.Baseline.WallTPS
	}
	return res, nil
}
