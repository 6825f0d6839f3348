package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"noftl"
	"noftl/internal/tpcc"
)

// tpccConfig pins every parameter of the tpcc workload.
type tpccConfig struct {
	geometry noftl.DeviceGeometry
	pool     int
	workload tpcc.Config // Transactions is one round; Seed is set per round

	warmupTxns int // run as part of the set-up, not measured
	rounds     int // measured per episode; the first episode's are the simulated window
}

var tpccBench = tpccConfig{
	geometry: noftl.DeviceGeometry{Channels: 4, DiesPerChannel: 4, PlanesPerDie: 1, BlocksPerDie: 40, PagesPerBlock: 32, PageSize: 4096},
	pool:     768,
	workload: tpcc.Config{
		Warehouses:               2,
		DistrictsPerWarehouse:    10,
		CustomersPerDistrict:     300,
		ItemCount:                2000,
		InitialOrdersPerDistrict: 300,
		Placement:                tpcc.PlacementRegions,
		Terminals:                8,
		Workers:                  1,
		Transactions:             1000,
		CheckpointEvery:          400,
	},
	warmupTxns: 2000,
	rounds:     10,
}

// dbConfig is the paper's regime: multi-region placement, foreground GC and
// light checkpoints (flush and truncate, no snapshot) every CheckpointEvery
// committed transactions, issued by the tpcc driver.
func (c tpccConfig) dbConfig() noftl.Config {
	cfg := noftl.DefaultConfig()
	cfg.Flash.Geometry = c.geometry
	cfg.BufferPoolPages = c.pool
	cfg.Space.Mode = noftl.PlacementRegions
	cfg.Space.DisableBackgroundGC = true
	cfg.WAL = true
	cfg.CheckpointEvery = 0
	cfg.CheckpointEveryBytes = 0
	cfg.DisableSnapshotCheckpoints = true
	cfg.LockTimeout = 60 * time.Second
	cfg.CPUPerOp = 5 * time.Microsecond
	return cfg
}

// tpccState is a loaded TPC-C database.
type tpccState struct {
	cfg  tpccConfig
	seed uint64
	db   *noftl.DB
	sch  *tpcc.Schema
}

// setupTPCC opens a database, creates the schema with its placement, loads
// it and runs the warm-up transactions.
func setupTPCC(c tpccConfig, seed uint64) (*tpccState, error) {
	db, err := noftl.OpenConfig(c.dbConfig())
	if err != nil {
		return nil, err
	}
	wl := c.workload
	wl.Seed = seed
	sch, err := tpcc.Setup(db, wl)
	if err == nil {
		err = tpcc.Load(db, sch, wl)
	}
	if err == nil {
		wl.Transactions = c.warmupTxns
		wl.Seed = seed ^ 0x5eed
		_, err = tpcc.Run(db, sch, wl)
	}
	if err != nil {
		db.Close()
		return nil, fmt.Errorf("tpcc setup: %w", err)
	}
	return &tpccState{cfg: c, seed: seed, db: db, sch: sch}, nil
}

// runTPCC measures tpcc: episodes of rounds, each episode on a freshly
// set-up database.
func runTPCC(c tpccConfig, o options) (*run, error) {
	return measure(o, func() (episode, error) { return setupTPCC(c, o.seed) })
}

// measure runs the episode's rounds.  tpcc.Run reports no per-transaction
// times, so a round is the finest grain at which tpcc's latency metrics can
// be sampled: txn_p50_us, txn_p99_us and sim_txn_p99_ms are taken over the
// rounds' mean latencies (see README.md).  A round is one tpcc.Run of
// workload.Transactions transactions after DB.ResetStatistics: tpcc.Run
// starts its terminals at virtual time zero, as after its own warm-up.  The
// reset zeroes some layers' counters, so the simulated window sums the
// rounds' Stats deltas.  The first episode's rounds are the simulated window.
func (st *tpccState) measure(r *run, first bool, tr *tracer) {
	c, db := st.cfg, st.db
	if first {
		r.start = layoutOf(db)
	}
	seeds := rand.New(rand.NewPCG(st.seed, 0x7c7c))
	var simWeighted, simCount int64
	for round := 0; round < c.rounds; round++ {
		wl := c.workload
		wl.Seed = seeds.Uint64() | 1
		db.ResetStatistics()
		base := snapshot(db.Stats())
		tr.begin(spanRound, uint64(round), 0)
		t0 := time.Now()
		res, err := tpcc.Run(db, st.sch, wl)
		wall := time.Since(t0)
		tr.end(noftl.Time(res.SimulatedTime))
		if err != nil {
			// tpcc.Run returns no counts with an error: the round failed.
			r.attempted += int64(wl.Transactions)
			r.failed += int64(wl.Transactions)
			r.errs = append(r.errs, fmt.Errorf("round %d: %w", round, err))
			return
		}
		d := snapshot(db.Stats()).sub(base)
		// TPC-C's intentional 1% rollbacks are part of the mix, not attempts
		// that failed; lock-timeout victims were attempted and not committed.
		r.attempted += int64(wl.Transactions) - res.Aborted
		r.committed += res.Committed
		r.failed += res.Failed
		r.retried += res.Retried
		if res.Committed != d.n[commits] {
			r.checkErr(fmt.Errorf("round %d: driver committed %d, Stats counted %d", round, res.Committed, d.n[commits]))
		}
		r.lat = append(r.lat, wall/time.Duration(max(res.Committed, 1)))
		if first {
			r.sim.add(d)
			var w, n int64
			for _, s := range res.ResponseTimes {
				w += int64(s.Mean) * s.Count
				n += s.Count
			}
			simWeighted += w
			simCount += n
			r.simResp = append(r.simResp, time.Duration(w/max(n, 1)))
		}
	}
	if first {
		r.simMean = time.Duration(simWeighted / max(simCount, 1))
		r.end = layoutOf(db)
	}
}

func (st *tpccState) check(r *run, _ bool) { r.checkErr(st.db.Admin().VerifyIntegrity()) }

func (st *tpccState) close() { st.db.Close() }
