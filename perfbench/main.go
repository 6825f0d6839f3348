// Command perfbench is the repository benchmark.  It drives one of three
// workloads (tpcc, kv-update, kv-read) against the noftl engine from a single
// goroutine, checks the outputs, and prints every metric with its unit; the
// last line of standard output is one JSON object.  See README.md.
//
//	perfbench --workload kv-read --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"time"
)

// minEpisodes is the fewest databases a run sets up and measures, so that
// setup_s is a median and a traced run has untraced and traced episodes.
const minEpisodes = 4

// latCap preallocates the per-transaction latency log, so that growing it
// does not add copies to the measured phase or to the peak RSS.
const latCap = 1 << 22

// episode is one freshly set-up database, measured once.
type episode interface {
	// measure runs the episode's fixed work, adding to r.  The first
	// episode also records the simulated window and the layout.
	measure(r *run, first bool, tr *tracer)
	// check runs the output checks at the end of the episode.
	check(r *run, first bool)
	close()
}

// measure runs episodes until their measured time adds up to o.seconds.
// Each episode sets a database up with setup (timed as setup_s), measures
// it and checks it.  A traced run traces every second episode.  A full
// garbage collection that also returns free memory to the OS before each
// set-up keeps one episode's garbage out of the next one's time and RSS.
func measure(o options, setup func() (episode, error)) (*run, error) {
	r := &run{lat: make([]time.Duration, 0, latCap)}
	if o.trace {
		r.trace, r.profile = newTracer(), newCPUProfile()
	}
	deadline := time.Duration(o.seconds) * time.Second
	for i := 0; (i < minEpisodes || r.wall < deadline) && len(r.errs) == 0; i++ {
		debug.FreeOSMemory()
		t0 := time.Now()
		ep, err := setup()
		if err != nil {
			return nil, err
		}
		r.setup = append(r.setup, time.Since(t0))
		var tr *tracer
		if o.trace && i%2 == 1 {
			tr = r.trace
			if err := r.profile.start(); err != nil {
				ep.close()
				return nil, err
			}
		}
		committed := r.committed
		r.lat = r.lat[:0]
		p0 := readProcess()
		ep.measure(r, i == 0, tr)
		p1 := readProcess()
		if tr != nil {
			if err := r.profile.stop(); err != nil {
				ep.close()
				return nil, err
			}
		}
		r.wall += p1.at.Sub(p0.at)
		txns := float64(max(r.committed-committed, 1))
		r.episodes = append(r.episodes, wallStats{
			traced:   tr != nil,
			txnPerS:  txns / p1.at.Sub(p0.at).Seconds(),
			cpuUs:    micros(p1.cpu-p0.cpu) / txns,
			allocs:   float64(p1.mallocs-p0.mallocs) / txns,
			p50Us:    micros(quantile(r.lat, 0.50)),
			p99Us:    micros(quantile(r.lat, 0.99)),
			observed: len(r.lat),
		})
		ep.check(r, i == 0)
		ep.close()
	}
	return r, nil
}

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
}

// spansDir is where a traced run writes its spans, relative to the
// repository root it runs from.
const spansDir = ".bench_build/spans"

// run is what one workload reports back: the wall-clock plane per episode
// and the simulated plane over the first episode, its fixed window.
type run struct {
	setup []time.Duration

	attempted, committed int64
	failed               int64   // transactions that failed: a program error
	retried              int64   // lock-timeout victims, neither committed nor failed
	errs                 []error // program errors in the measured phase
	checks               []error // failed output checks

	wall     time.Duration   // measured time of all episodes
	lat      []time.Duration // the current episode's wall latency per observation (see README)
	episodes []wallStats

	sim     counters        // the simulated window's counter deltas
	simResp []time.Duration // simulated response time per observation
	simMean time.Duration   // mean simulated response time per transaction

	start, end layout // at the start and the end of the first episode's measured work

	trace   *tracer
	profile *cpuProfile
}

// wallStats are one episode's wall-clock figures.  A run reports the median
// over its episodes, which keeps a burst of load from other processes on
// the host out of the result.
type wallStats struct {
	traced                 bool
	txnPerS, cpuUs, allocs float64
	p50Us, p99Us           float64
	observed               int // latency observations behind p50Us and p99Us
}

// episodeMedian is the median of f over the traced or untraced episodes.
func (r *run) episodeMedian(traced bool, f func(wallStats) float64) float64 {
	var xs []float64
	for _, e := range r.episodes {
		if e.traced == traced {
			xs = append(xs, f(e))
		}
	}
	return median(xs)
}

func (r *run) checkErr(err error) {
	if err != nil {
		r.checks = append(r.checks, err)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: tpcc, kv-update or kv-read")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&o.seconds, "seconds", 10, "wall-clock seconds the measured phase lasts at least")
	traceFlag := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	flag.Parse()
	o.trace = *traceFlag == 1
	if *traceFlag != 0 && *traceFlag != 1 || o.seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1 and --seconds at least 1")
		os.Exit(2)
	}

	fmt.Printf("env: nproc=%d GOMAXPROCS=%d go=%s seed=%d workload=%s seconds=%d trace=%v\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), o.seed, o.workload, o.seconds, o.trace)

	var (
		r   *run
		err error
	)
	switch o.workload {
	case "tpcc":
		r, err = runTPCC(tpccBench, o)
	case "kv-update":
		r, err = runKV(kvUpdate, o)
	case "kv-read":
		r, err = runKV(kvRead, o)
	default:
		err = fmt.Errorf("unknown workload %q (want tpcc, kv-update or kv-read)", o.workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Printf("layout: data_pages=%d->%d wal_pages=%d->%d pool_frames=%d device_pages=%d utilization=%.3f->%.3f\n",
		r.start.dataPages, r.end.dataPages, r.start.walPages, r.end.walPages, r.start.poolFrames, r.start.devicePages,
		r.start.utilization, r.end.utilization)
	if len(r.episodes) > 0 {
		fmt.Printf("episodes: %d; latency percentiles per episode over %d observations\n", len(r.episodes), r.episodes[0].observed)
	}
	res := report(r, o)
	for _, e := range append(r.errs, r.checks...) {
		fmt.Println("check failed:", e)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// report turns a run into the result line: the end-to-end metrics, or with
// tracing the per-layer ones.  Both are also printed one per line.
func report(r *run, o options) result {
	m := endToEnd(r)
	if o.trace {
		m = perLayer(r)
		path := filepath.Join(spansDir, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
		if err := r.trace.write(path); err != nil {
			r.checkErr(fmt.Errorf("writing spans: %w", err))
		} else {
			fmt.Printf("spans: %d kept of %d in %s\n", len(r.trace.kept), int64(len(r.trace.kept))+r.trace.dropped, path)
		}
	}
	names := make([]string, 0, len(m))
	for n, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			// JSON has no NaN or infinity; only an incomplete run yields them.
			r.checkErr(fmt.Errorf("metric %s is not a number: %v", n, v.Value))
			m[n] = metric{0, v.Unit}
		}
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-28s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
	if r.failed > 0 {
		r.checkErr(fmt.Errorf("%d of %d transactions failed", r.failed, r.attempted))
	}
	return result{
		Correct:   len(r.checks) == 0,
		Attempted: max(r.attempted, 1),
		Failed:    r.failed + r.retried,
		Metrics:   m,
	}
}

// endToEnd computes the metrics a user of the engine sees.
func endToEnd(r *run) map[string]metric {
	secs := make([]float64, len(r.setup))
	for i, d := range r.setup {
		secs[i] = d.Seconds()
	}
	simTxns := r.sim.n[commits]
	m := map[string]metric{
		"setup_s":         {median(secs), "s"},
		"txn_per_s":       {r.episodeMedian(false, func(e wallStats) float64 { return e.txnPerS }), "1/s"},
		"txn_p50_us":      {r.episodeMedian(false, func(e wallStats) float64 { return e.p50Us }), "us"},
		"txn_p99_us":      {r.episodeMedian(false, func(e wallStats) float64 { return e.p99Us }), "us"},
		"cpu_us_per_txn":  {r.episodeMedian(false, func(e wallStats) float64 { return e.cpuUs }), "us"},
		"allocs_per_txn":  {r.episodeMedian(false, func(e wallStats) float64 { return e.allocs }), "count"},
		"max_rss_mb":      {maxRSSMiB(), "MiB"},
		"sim_tps":         {float64(simTxns) / time.Duration(r.sim.n[simulatedNs]).Seconds(), "1/s"},
		"sim_txn_mean_ms": {millis(r.simMean), "ms"},
		"sim_txn_p99_ms":  {millis(quantile(slices.Clone(r.simResp), 0.99)), "ms"},
		"sim_write_us":    {perTxn(r.sim.n[writeSum], r.sim.n[writeCount]) / 1e3, "us"},
		"write_amp":       {perTxn(r.sim.n[hostWrites]+r.sim.n[copybacks], r.sim.n[hostWrites]), "ratio"},
		"success_ratio":   {float64(r.committed) / float64(max(r.attempted, 1)), "ratio"},
	}
	return m
}

// perLayer computes the per-layer metrics of a traced run.  Counts are per
// committed transaction of the simulated window unless the name says
// otherwise.
func perLayer(r *run) map[string]metric {
	c := r.sim.n
	n := c[commits]
	t := r.trace
	m := map[string]metric{
		"txn.lock_wall_us":                {t.meanSelfUs(spanLock), "us"},
		"txn.lock_sim_us":                 {t.meanSimUs(spanLock), "us"},
		"txn.lock_waits":                  {perTxn(c[lockWaits], n), "count"},
		"txn.lock_timeouts":               {perTxn(c[lockTimeouts], n), "count"},
		"txn.self_wall_us":                {t.meanSelfUs(spanTxn), "us"},
		"wal.commit_wall_us":              {t.meanSelfUs(spanCommit), "us"},
		"wal.commit_sim_us":               {t.meanSimUs(spanCommit), "us"},
		"wal.forces":                      {perTxn(c[walForces], n), "count"},
		"wal.bytes":                       {perTxn(c[walBytes], n), "B"},
		"wal.checkpoints":                 {float64(c[checkpoints]), "count"},
		"wal.checkpoint_mb":               {float64(c[checkpointSize]) / (1 << 20), "MiB"},
		"btree.lookup_wall_us":            {t.meanSelfUs(spanLookup), "us"},
		"btree.lookup_sim_us":             {t.meanSimUs(spanLookup), "us"},
		"btree.range_wall_us":             {t.meanSelfUs(spanRange), "us"},
		"btree.range_sim_us":              {t.meanSimUs(spanRange), "us"},
		"storage.get_wall_us":             {t.meanSelfUs(spanGet), "us"},
		"storage.get_sim_us":              {t.meanSimUs(spanGet), "us"},
		"storage.update_wall_us":          {t.meanSelfUs(spanUpdate), "us"},
		"storage.update_sim_us":           {t.meanSimUs(spanUpdate), "us"},
		"tpcc.round_wall_ms":              {t.meanSelfUs(spanRound) / 1e3, "ms"},
		"buffer.hit_ratio":                {perTxn(c[bufHits], c[bufHits]+c[bufMisses]), "ratio"},
		"buffer.misses":                   {perTxn(c[bufMisses], n), "count"},
		"buffer.evictions":                {perTxn(c[evictions], n), "count"},
		"buffer.writebacks":               {perTxn(c[writebacks], n), "count"},
		"iosched.submissions":             {perTxn(c[submissions], n), "count"},
		"iosched.requests_per_submission": {perTxn(c[requests], c[submissions]), "count"},
		"iosched.gc_requests":             {perTxn(c[gcRequests], n), "count"},
		"core.host_reads":                 {perTxn(c[hostReads], n), "count"},
		"core.host_writes":                {perTxn(c[hostWrites], n), "count"},
		"core.read_sim_us":                {perTxn(c[readSum], c[readCount]) / 1e3, "us"},
		"core.gc_copybacks":               {perTxn(c[copybacks], n), "count"},
		"core.gc_erases":                  {perTxn(c[erases], n), "count"},
		"core.gc_stalls":                  {perTxn(c[gcStalls], n), "count"},
		"core.bg_gc_steps":                {perTxn(c[bgSteps], n), "count"},
		"core.utilization_start":          {r.start.utilization, "ratio"},
		"core.utilization_end":            {r.end.utilization, "ratio"},
		"flash.reads":                     {perTxn(c[flashReads], n), "count"},
		"flash.programs":                  {perTxn(c[flashPrograms], n), "count"},
		"flash.die_busy_skew":             {r.sim.dieBusySkew(), "ratio"},
	}
	for mod, pct := range r.profile.shares() {
		m["cpu."+mod+"_pct"] = metric{pct, "%"}
	}
	traced := r.episodeMedian(true, func(e wallStats) float64 { return e.txnPerS })
	untraced := r.episodeMedian(false, func(e wallStats) float64 { return e.txnPerS })
	m["trace.txn_per_s"] = metric{traced, "1/s"}
	m["trace.untraced_txn_per_s"] = metric{untraced, "1/s"}
	m["trace.overhead_pct"] = metric{100 * (untraced - traced) / untraced, "%"}
	return m
}
