package main

import (
	"math"
	"runtime"
	"slices"
	"syscall"
	"time"

	"noftl"
)

// A counter indexes the additive subset of noftl.Stats the benchmark
// reports.  Counters are always taken as the difference of two snapshots,
// because some layers reset theirs on DB.ResetStatistics (space manager,
// buffer pool, scheduler, device) and others never do (transactions, lock
// manager, WAL).
type counter int

const (
	simulatedNs counter = iota
	commits
	lockWaits
	lockTimeouts
	walForces
	walBytes
	checkpoints
	checkpointSize // bytes of the last snapshot: a level, not a delta
	bufHits
	bufMisses
	evictions
	writebacks
	submissions
	requests
	gcRequests
	hostReads
	hostWrites
	copybacks
	erases
	gcStalls
	bgSteps
	flashReads
	flashPrograms
	readCount
	readSum // simulated host read latency, ns
	writeCount
	writeSum // simulated host write latency, ns
	numCounters
)

type counters struct {
	n       [numCounters]int64
	dieBusy []time.Duration
}

// snapshot extracts the counters from one Stats snapshot.
func snapshot(st noftl.Stats) counters {
	c := counters{n: [numCounters]int64{
		simulatedNs:    int64(st.Simulated),
		commits:        st.TxnCommitted,
		lockWaits:      st.Txn.LockWaits,
		lockTimeouts:   st.Txn.LockTimeouts,
		walForces:      st.WAL.Flushes,
		walBytes:       st.WAL.BytesAppended,
		checkpoints:    st.WAL.Checkpoint.Count,
		checkpointSize: st.WAL.Checkpoint.LastBytes,
		bufHits:        st.Buffer.Hits,
		bufMisses:      st.Buffer.Misses,
		evictions:      st.Buffer.Evictions,
		writebacks:     st.Buffer.Writebacks,
		submissions:    st.Scheduler.Batches,
		requests:       st.Scheduler.Requests,
		gcRequests:     st.Scheduler.GC,
		hostReads:      st.Space.HostReads,
		hostWrites:     st.Space.HostWrites,
		copybacks:      st.Space.GCCopybacks,
		erases:         st.Space.GCErases,
		gcStalls:       st.Space.GCStalls,
		bgSteps:        st.Space.BGGCSteps,
		flashReads:     st.Device.Reads,
		flashPrograms:  st.Device.Programs,
		readCount:      st.ReadLatency.Count,
		readSum:        st.ReadLatency.Count * int64(st.ReadLatency.Mean),
		writeCount:     st.WriteLatency.Count,
		writeSum:       st.WriteLatency.Count * int64(st.WriteLatency.Mean),
	}}
	for _, d := range st.Device.PerDie {
		c.dieBusy = append(c.dieBusy, d.BusyTime)
	}
	return c
}

// sub returns c - base; checkpointSize keeps c's value.
func (c counters) sub(base counters) counters {
	d := counters{dieBusy: make([]time.Duration, len(c.dieBusy))}
	for i := range d.n {
		d.n[i] = c.n[i] - base.n[i]
	}
	d.n[checkpointSize] = c.n[checkpointSize]
	for i, b := range c.dieBusy {
		d.dieBusy[i] = b
		if i < len(base.dieBusy) {
			d.dieBusy[i] -= base.dieBusy[i]
		}
	}
	return d
}

// add accumulates d into c (tpcc sums its rounds); checkpointSize takes d's.
func (c *counters) add(d counters) {
	for i := range c.n {
		c.n[i] += d.n[i]
	}
	c.n[checkpointSize] = d.n[checkpointSize]
	if c.dieBusy == nil {
		c.dieBusy = make([]time.Duration, len(d.dieBusy))
	}
	for i, b := range d.dieBusy {
		c.dieBusy[i] += b
	}
}

// dieBusySkew is the busiest die's busy time over the mean die busy time.
func (c counters) dieBusySkew() float64 {
	var sum, mx time.Duration
	for _, b := range c.dieBusy {
		sum += b
		mx = max(mx, b)
	}
	if sum == 0 {
		return 0
	}
	return float64(mx) * float64(len(c.dieBusy)) / float64(sum)
}

// layout compares the database with the buffer pool and the device.
type layout struct {
	dataPages, walPages, poolFrames, devicePages int64
	utilization                                  float64
}

func layoutOf(db *noftl.DB) layout {
	st := db.Stats()
	l := layout{poolFrames: int64(st.Buffer.Frames), devicePages: db.Geometry().TotalPages()}
	l.utilization = float64(st.Space.ValidPages) / float64(l.devicePages)
	for _, o := range st.Objects {
		if o.Name == "WAL" {
			l.walPages = o.SizePages
		} else {
			l.dataPages += o.SizePages
		}
	}
	return l
}

// process is a reading of the process-wide costs the wall plane reports.
type process struct {
	at      time.Time
	cpu     time.Duration
	mallocs uint64
}

func readProcess() process {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return process{at: time.Now(), cpu: cpuTime(), mallocs: ms.Mallocs}
}

// cpuTime is the user plus system CPU time the process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMiB is the peak resident set size of the process in MiB.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// quantile returns the q-quantile of xs by the nearest-rank method; xs is
// sorted in place.
func quantile(xs []time.Duration, q float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

// median of float64 samples (the mean of the middle two for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// perTxn divides a count by the committed transactions.
func perTxn(n, txns int64) float64 {
	if txns == 0 {
		return 0
	}
	return float64(n) / float64(txns)
}
