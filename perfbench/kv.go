package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"strconv"
	"time"

	"noftl"
)

// kvConfig pins every parameter of a key-value workload.  See README.md for
// why each workload is shaped the way it is.
type kvConfig struct {
	rows           int // rows in table KV, keys 0..rows-1
	rowMin, rowMax int // each key's row length is drawn from [rowMin, rowMax] by the seed
	geometry       noftl.DeviceGeometry
	pool           int // buffer pool frames

	// checkpointBytes triggers a recoverable snapshot checkpoint every that
	// many appended WAL bytes.
	checkpointBytes int64

	update     bool    // read-modify-write (kv-update) or read-only (kv-read)
	zipfTheta  float64 // key skew; 0 draws keys uniformly
	rangeShare float64 // share of transactions that are Index.Range scans
	maxScan    int     // a scan reads 1..maxScan consecutive rows, uniformly

	warmupTxns int // run as part of the set-up, not measured
	txns       int // measured per episode; the first episode's are the simulated window
}

// kvUpdate's rows have one length, so every seed appends the same WAL bytes
// per transaction and takes the same number of checkpoints per episode.
var kvUpdate = kvConfig{
	rows: 20000, rowMin: 200, rowMax: 200,
	geometry:        noftl.DeviceGeometry{Channels: 4, DiesPerChannel: 2, PlanesPerDie: 1, BlocksPerDie: 32, PagesPerBlock: 32, PageSize: 4096},
	pool:            128,
	checkpointBytes: 3 << 20,
	update:          true,
	zipfTheta:       0.99,
	warmupTxns:      20000,
	txns:            60000,
}

// kvRead's row lengths come from the seed.  A read-only transaction's
// simulated time does not depend on which keys it reads, so with fixed
// lengths every seed would give the same simulated figures.
var kvRead = kvConfig{
	rows: 20000, rowMin: 100, rowMax: 300,
	geometry:        noftl.DeviceGeometry{Channels: 4, DiesPerChannel: 2, PlanesPerDie: 1, BlocksPerDie: 64, PagesPerBlock: 32, PageSize: 4096},
	pool:            2048,
	checkpointBytes: 3 << 20,
	rangeShare:      0.05,
	maxScan:         100,
	warmupTxns:      20000,
	txns:            100000,
}

// dbConfig is the engine configuration of a kv workload: one region (the
// default), the engine's default background GC with hot/cold separation,
// and snapshot checkpoints by WAL bytes.
func (c kvConfig) dbConfig() noftl.Config {
	cfg := noftl.DefaultConfig()
	cfg.Flash.Geometry = c.geometry
	cfg.BufferPoolPages = c.pool
	cfg.Space.Mode = noftl.PlacementRegions
	cfg.Space.DisableBackgroundGC = false
	cfg.Space.GC = noftl.GCPolicy{StepPages: 8}
	cfg.WAL = true
	cfg.CheckpointEvery = 0
	cfg.CheckpointEveryBytes = c.checkpointBytes
	cfg.DisableSnapshotCheckpoints = false
	cfg.LockTimeout = 2 * time.Second
	cfg.CPUPerOp = 5 * time.Microsecond
	return cfg
}

// kvState is a loaded key-value database plus the benchmark's oracle: the
// version of every key's last acknowledged write.
type kvState struct {
	cfg     kvConfig
	seed    uint64
	db      *noftl.DB
	cur     *noftl.TimeCursor // the single client's virtual time, from the load on
	tbl     *noftl.Table
	idx     *noftl.Index
	keys    [][]byte
	locks   []string
	sizes   []int    // row length per key
	version []uint64 // version of each key's last acknowledged write
	row     []byte   // scratch for the expected/new row image
	rids    []noftl.RID
}

// image returns the row image of key k at version v, in scratch space.
func (s *kvState) image(k int, v uint64) []byte {
	dst := s.row[:s.sizes[k]]
	makeRow(dst, k, v)
	return dst
}

// makeRow fills dst with the row image of key k at version v.
func makeRow(dst []byte, k int, v uint64) {
	dst[0], dst[1], dst[2], dst[3] = byte(k>>24), byte(k>>16), byte(k>>8), byte(k)
	for i := 0; i < 8; i++ {
		dst[4+i] = byte(v >> (56 - 8*i))
	}
	x := byte(k*31) ^ byte(v*7)
	for i := 12; i < len(dst); i++ {
		dst[i] = x + byte(i)
	}
}

// setupKV opens a database, loads the table and its index and runs the
// warm-up transactions.  Statistics are never reset: the load, the warm-up
// and the measured work run on one virtual time line, so the scheduler's
// per-die horizons stay behind the client and background GC is live from
// the start (a reset restarts the clock at 0 but not those horizons, which
// holds background GC off until the clock catches up with them).
func setupKV(c kvConfig, seed uint64) (*kvState, error) {
	db, err := noftl.OpenConfig(c.dbConfig())
	if err != nil {
		return nil, err
	}
	s := &kvState{cfg: c, seed: seed, db: db, row: make([]byte, c.rowMax)}
	if err := db.Exec(`CREATE TABLESPACE tsKV (REGION=DEFAULT);
		CREATE TABLE KV (k INTEGER, v INTEGER) TABLESPACE tsKV;
		CREATE UNIQUE INDEX KV_IDX ON KV (k) TABLESPACE tsKV;`); err != nil {
		db.Close()
		return nil, err
	}
	s.tbl, _ = db.Table("KV")
	s.idx, _ = db.Index("KV_IDX")
	s.keys = make([][]byte, c.rows)
	s.locks = make([]string, c.rows)
	s.version = make([]uint64, c.rows)
	s.sizes = make([]int, c.rows)
	sizes := rand.New(rand.NewPCG(seed, 0x512e))
	for k := range s.keys {
		s.sizes[k] = c.rowMin + sizes.IntN(c.rowMax-c.rowMin+1)
		s.keys[k] = noftl.Key(uint32(k))
		s.locks[k] = "KV:" + strconv.Itoa(k)
	}
	const batch = 500
	for lo := 0; lo < c.rows; lo += batch {
		hi := min(lo+batch, c.rows)
		err := db.Update(func(tx *noftl.Tx) error {
			rows := make([][]byte, hi-lo)
			for i := range rows {
				rows[i] = make([]byte, s.sizes[lo+i])
				makeRow(rows[i], lo+i, 0)
			}
			rids, err := s.tbl.InsertBatch(tx, rows)
			if err != nil {
				return err
			}
			for i, rid := range rids {
				if err := s.idx.Insert(tx, s.keys[lo+i], rid); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			db.Close()
			return nil, fmt.Errorf("kv load: %w", err)
		}
	}
	s.cur = db.TimeCursor()
	s.cur.AdvanceTo(db.SimulatedTime())
	gen := newKeyGen(c, seed^0x5eed)
	for i := 0; i < c.warmupTxns; i++ {
		if _, err := s.txn(gen, nil); err != nil {
			db.Close()
			return nil, fmt.Errorf("kv warm-up: %w", err)
		}
	}
	// Every episode starts right after a checkpoint, so each one takes the
	// same number of checkpoints whatever the seed's row lengths.
	end, err := db.Checkpoint(s.cur.Now())
	if err != nil {
		db.Close()
		return nil, fmt.Errorf("kv checkpoint after warm-up: %w", err)
	}
	s.cur.AdvanceTo(end)
	return s, nil
}

// keyGen draws the workload's key stream from the seed.
type keyGen struct {
	r          *rand.Rand
	n          int
	rangeShare float64
	maxScan    int
	// Zipf (Gray et al.): rank = n*(eta*u-eta+1)^alpha, then perm maps the
	// rank to a key so hot keys are spread over the table's pages.
	theta, zetan, alpha, eta float64
	perm                     []int
}

func newKeyGen(c kvConfig, seed uint64) *keyGen {
	g := &keyGen{r: rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)), n: c.rows, rangeShare: c.rangeShare, maxScan: c.maxScan, theta: c.zipfTheta}
	if g.theta > 0 {
		for i := 1; i <= g.n; i++ {
			g.zetan += 1 / math.Pow(float64(i), g.theta)
		}
		zeta2 := 1 + 1/math.Pow(2, g.theta)
		g.alpha = 1 / (1 - g.theta)
		g.eta = (1 - math.Pow(2/float64(g.n), 1-g.theta)) / (1 - zeta2/g.zetan)
		g.perm = g.r.Perm(g.n)
	}
	return g
}

// next returns the next operation: a point read or update of key, or when
// scan > 0 a scan of that many consecutive keys from key.
func (g *keyGen) next() (key, scan int) {
	if g.rangeShare > 0 && g.r.Float64() < g.rangeShare {
		scan = 1 + g.r.IntN(g.maxScan)
		return g.r.IntN(g.n - scan + 1), scan
	}
	if g.theta == 0 {
		return g.r.IntN(g.n), 0
	}
	u := g.r.Float64()
	uz := u * g.zetan
	rank := 0
	switch {
	case uz < 1:
	case uz < 1+math.Pow(0.5, g.theta):
		rank = 1
	default:
		rank = min(int(float64(g.n)*math.Pow(g.eta*u-g.eta+1, g.alpha)), g.n-1)
	}
	return g.perm[rank], 0
}

var errMismatch = errors.New("row does not match the oracle")

// txn runs one transaction at the client's virtual time and returns its
// simulated response time.  Errors are program failures: the benchmark's
// workloads are built so that no operation fails.
func (s *kvState) txn(gen *keyGen, tr *tracer) (time.Duration, error) {
	k, scan := gen.next()
	tx := s.db.BeginAt(s.cur.Now())
	tr.begin(spanTxn, tx.ID(), tx.Now())
	err := s.body(tx, k, scan, tr)
	if err != nil {
		tx.Abort()
		tr.end(tx.Now())
		return 0, err
	}
	tr.begin(spanCommit, tx.ID(), tx.Now())
	end, err := tx.Commit()
	tr.end(end)
	tr.end(end)
	if err != nil {
		tx.Abort()
		return 0, err
	}
	if s.cfg.update {
		s.version[k]++
	}
	s.cur.AdvanceTo(end)
	return time.Duration(tx.ResponseTime()), nil
}

// body runs the transaction's operations up to (not including) commit.
func (s *kvState) body(tx *noftl.Tx, k, scan int, tr *tracer) error {
	if scan > 0 {
		return s.scan(tx, k, k+scan, tr)
	}
	mode := noftl.Shared
	if s.cfg.update {
		mode = noftl.Exclusive
	}
	tr.begin(spanLock, tx.ID(), tx.Now())
	err := tx.Lock(s.locks[k], mode)
	tr.end(tx.Now())
	if err != nil {
		return err
	}
	tr.begin(spanLookup, tx.ID(), tx.Now())
	rid, found, err := s.idx.Lookup(tx, s.keys[k])
	tr.end(tx.Now())
	if err != nil {
		return err
	}
	if !found {
		return fmt.Errorf("key %d: %w", k, noftl.ErrNotFound)
	}
	tr.begin(spanGet, tx.ID(), tx.Now())
	row, err := s.tbl.Get(tx, rid)
	tr.end(tx.Now())
	if err != nil {
		return err
	}
	if !bytes.Equal(row, s.image(k, s.version[k])) {
		return fmt.Errorf("key %d: %w", k, errMismatch)
	}
	if !s.cfg.update {
		return nil
	}
	next := s.image(k, s.version[k]+1)
	tr.begin(spanUpdate, tx.ID(), tx.Now())
	err = s.tbl.Update(tx, rid, next)
	tr.end(tx.Now())
	return err
}

// scan reads keys lo..hi-1 through Index.Range and fetches each row: the
// scan must return exactly those keys, in order, with the oracle's rows.
func (s *kvState) scan(tx *noftl.Tx, lo, hi int, tr *tracer) error {
	var end []byte
	if hi < s.cfg.rows {
		end = s.keys[hi]
	}
	rids := s.rids[:0]
	next := lo
	tr.begin(spanRange, tx.ID(), tx.Now())
	for key, rid := range s.idx.Range(tx, s.keys[lo], end) {
		if next >= hi || !bytes.Equal(key, s.keys[next]) {
			next = -1
			break
		}
		rids = append(rids, rid)
		next++
	}
	tr.end(tx.Now())
	s.rids = rids
	if err := tx.Err(); err != nil {
		return err
	}
	if next != hi {
		return fmt.Errorf("range [%d,%d): wrong keys", lo, hi)
	}
	for i, rid := range rids {
		k := lo + i
		tr.begin(spanGet, tx.ID(), tx.Now())
		row, err := s.tbl.Get(tx, rid)
		tr.end(tx.Now())
		if err != nil {
			return err
		}
		if !bytes.Equal(row, s.image(k, s.version[k])) {
			return fmt.Errorf("key %d: %w", k, errMismatch)
		}
	}
	return nil
}

// verify checks every key's row, reached through the index, against the
// oracle.
func (s *kvState) verify() error {
	tx := s.db.Begin()
	defer tx.Abort()
	for k, key := range s.keys {
		rid, found, err := s.idx.Lookup(tx, key)
		if err != nil {
			return err
		}
		if !found {
			return fmt.Errorf("key %d: %w", k, noftl.ErrNotFound)
		}
		row, err := s.tbl.Get(tx, rid)
		if err != nil {
			return err
		}
		if !bytes.Equal(row, s.image(k, s.version[k])) {
			return fmt.Errorf("key %d: %w", k, errMismatch)
		}
	}
	return nil
}

// crashAndVerify crashes the database, recovers it and checks that every
// acknowledged update survived.  s then refers to the recovered database.
func (s *kvState) crashAndVerify() error {
	db, err := noftl.Reopen(s.db.Crash())
	if err != nil {
		return fmt.Errorf("reopen after crash: %w", err)
	}
	s.db = db
	s.tbl, _ = db.Table("KV")
	s.idx, _ = db.Index("KV_IDX")
	if s.tbl == nil || s.idx == nil {
		return errors.New("recovered database lost table KV or index KV_IDX")
	}
	if err := db.Admin().VerifyIntegrity(); err != nil {
		return fmt.Errorf("after recovery: %w", err)
	}
	if err := s.verify(); err != nil {
		return fmt.Errorf("after recovery: %w", err)
	}
	return nil
}

// runKV measures a kv workload: episodes of txns transactions, each on a
// freshly set-up database.
func runKV(c kvConfig, o options) (*run, error) {
	return measure(o, func() (episode, error) { return setupKV(c, o.seed) })
}

// measure runs the episode's transactions, continuing the warm-up's virtual
// time line.  The first episode's are the simulated window: its counters
// are Stats deltas over them.
func (s *kvState) measure(r *run, first bool, tr *tracer) {
	c, db := s.cfg, s.db
	if first {
		r.start = layoutOf(db)
	}
	gen := newKeyGen(c, s.seed)
	base := snapshot(db.Stats())
	var simSum time.Duration
	for i := 0; i < c.txns; i++ {
		t0 := time.Now()
		resp, err := s.txn(gen, tr)
		r.lat = append(r.lat, time.Since(t0))
		r.attempted++
		if err != nil {
			r.failed++
			r.errs = append(r.errs, err)
			if len(r.errs) >= 10 {
				return
			}
			continue
		}
		r.committed++
		if first {
			r.simResp = append(r.simResp, resp)
			simSum += resp
		}
	}
	if first {
		r.sim = snapshot(db.Stats()).sub(base)
		r.simMean = simSum / time.Duration(max(len(r.simResp), 1))
		r.end = layoutOf(db)
		if r.sim.n[commits] != int64(len(r.simResp)) {
			r.checkErr(fmt.Errorf("simulated window: Stats counted %d commits, the benchmark %d", r.sim.n[commits], len(r.simResp)))
		}
	}
}

// check runs the output checks at the end of an episode.  Every episode
// of a run does the same work, so the slow crash-recovery check runs after
// the first one only.
func (s *kvState) check(r *run, first bool) {
	r.checkErr(s.db.Admin().VerifyIntegrity())
	r.checkErr(s.verify())
	if s.cfg.update && first {
		r.checkErr(s.crashAndVerify())
	}
}

func (s *kvState) close() { s.db.Close() }
