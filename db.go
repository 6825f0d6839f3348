package noftl

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"noftl/internal/buffer"
	"noftl/internal/catalog"
	"noftl/internal/core"
	"noftl/internal/ddl"
	"noftl/internal/flash"
	"noftl/internal/metrics"
	"noftl/internal/obs"
	"noftl/internal/sim"
	"noftl/internal/storage"
	"noftl/internal/txn"
	"noftl/internal/wal"
)

// DB is a database instance running on simulated native flash under NoFTL
// space management.
type DB struct {
	cfg      Config
	dev      *flash.Device
	space    *core.Manager
	pool     *buffer.Pool
	cat      *catalog.Catalog
	log      *wal.Log
	txns     *txn.Manager
	clock    *sim.Clock
	objStats *metrics.ObjectStats
	reg      *metrics.Registry
	tracer   *obs.Tracer // nil when tracing is off
	msrv     *metricsServer

	mu          sync.RWMutex
	tablespaces map[string]*storage.Tablespace
	tables      map[string]*Table
	indexes     map[string]*Index
	objectNames map[uint32]string
	closed      bool

	// Checkpointing.  ckptMu is the quiesce lock: every transaction holds it
	// shared from Begin to Commit/Abort, a checkpoint holds it exclusively,
	// so snapshots see no in-flight transaction.  recovering suppresses
	// checkpoint triggers while recovery rebuilds the database through the
	// normal DDL/heap/btree paths.
	ckptMu      sync.RWMutex
	ckptRunning atomic.Bool
	ckptSeq     uint64 // checkpoint sequence number (RecCheckpoint TxnID)
	ckptCount   int64
	ckptChunks  int64
	ckptLastLSN uint64 // LSN of the last checkpoint's final chunk
	ckptBytes   int64  // snapshot size of the last checkpoint
	ckptTime    sim.Time
	ckptWALMark int64 // BytesAppended at the last checkpoint
	recovering  bool
	recovery    *RecoveryStats // non-nil after Reopen
}

// openOn wires the database layers over an already-created device.  The
// public entry points are Open and OpenConfig (options.go).
func openOn(cfg Config, dev *flash.Device) (*DB, error) {
	return openWith(cfg, dev, core.NewManager(dev, cfg.Space))
}

// openWith wires the layers over an explicit space manager; recovery passes
// one that already adopted the crashed device's physical state.
func openWith(cfg Config, dev *flash.Device, space *core.Manager) (*DB, error) {
	db := &DB{
		cfg:         cfg,
		dev:         dev,
		space:       space,
		cat:         catalog.New(),
		clock:       sim.NewClock(),
		objStats:    metrics.NewObjectStats(),
		tablespaces: make(map[string]*storage.Tablespace),
		tables:      make(map[string]*Table),
		indexes:     make(map[string]*Index),
		objectNames: make(map[uint32]string),
	}
	// The metrics registry is always live (registering families is cheap and
	// the hot paths only touch cached children); the tracer only exists when
	// the configuration asked for tracing.
	db.reg = metrics.NewRegistry()
	if cfg.TraceWriter != nil || cfg.TraceBufferEvents != 0 {
		db.tracer = obs.NewTracer(cfg.TraceBufferEvents)
	}
	db.space.AttachObs(db.tracer, db.reg)
	db.pool = buffer.New(db.space, cfg.BufferPoolPages, dev.Geometry().PageSize, db)
	db.pool.AttachObs(db.tracer)
	db.pool.Configure(buffer.Options{
		ReadAhead:      cfg.ReadAheadPages,
		GroupWriteBack: !cfg.DisableGroupWriteBack,
		Shards:         cfg.BufferPoolShards,
	})

	// The default tablespace lives in the default region; the catalog and
	// WAL are placed there unless the DBA says otherwise.
	defTS := storage.NewTablespace("SYSTEM", core.DefaultRegionID, cfg.ExtentPages, db.space)
	db.tablespaces["SYSTEM"] = defTS
	if err := db.cat.AddTablespace(catalog.Tablespace{Name: "SYSTEM", Region: core.DefaultRegionName, ExtentPages: cfg.ExtentPages}); err != nil {
		return nil, err
	}

	if cfg.WAL {
		walObj := db.cat.NextObjectID()
		db.objectNames[walObj] = "WAL"
		db.objStats.Register("WAL", "log", "SYSTEM")
		db.log = wal.New(db.space, defTS.Hint(walObj, flash.FlagLog), dev.Geometry().PageSize)
		db.log.AttachObs(db.tracer)
	}
	db.txns = txn.NewManager(txn.NewLockManager(cfg.LockTimeout), db.log, db.clock)
	if cfg.MetricsAddr != "" {
		srv, err := serveMetrics(db, cfg.MetricsAddr)
		if err != nil {
			return nil, err
		}
		db.msrv = srv
	}
	return db, nil
}

// Close flushes all dirty pages and marks the database closed.
func (db *DB) Close() error {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return nil
	}
	db.closed = true
	db.mu.Unlock()
	// Flush outside db.mu: the flush path reports per-object statistics,
	// which takes a read lock on db.mu.
	if _, err := db.pool.FlushAll(db.clock.Now()); err != nil {
		return err
	}
	if db.log != nil {
		if _, err := db.log.Flush(db.clock.Now()); err != nil {
			return err
		}
	}
	if db.msrv != nil {
		db.msrv.shutdown()
	}
	if db.cfg.TraceWriter != nil {
		if _, err := db.tracer.Dump(db.cfg.TraceWriter); err != nil {
			return err
		}
	}
	return nil
}

// RecordPhysRead implements buffer.Recorder: physical page reads are charged
// to the owning object's statistics (consumed by the Region Advisor).
func (db *DB) RecordPhysRead(objectID uint32, pages int64) {
	if name, ok := db.objectName(objectID); ok {
		db.objStats.RecordRead(name, pages)
	}
}

// RecordPhysWrite implements buffer.Recorder.
func (db *DB) RecordPhysWrite(objectID uint32, pages int64) {
	if name, ok := db.objectName(objectID); ok {
		db.objStats.RecordWrite(name, pages)
	}
}

func (db *DB) objectName(id uint32) (string, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	n, ok := db.objectNames[id]
	return n, ok
}

// Geometry returns the flash device's geometry (channels, dies, blocks,
// pages).  It is the read-only replacement for the former Device() escape
// hatch; live counters are in Stats().
func (db *DB) Geometry() DeviceGeometry { return db.dev.Geometry() }

// SimulatedTime returns the highest simulated time observed so far.
func (db *DB) SimulatedTime() sim.Time { return db.clock.Now() }

// checkOpen returns ErrClosed once Close has been called.
func (db *DB) checkOpen() error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return ErrClosed
	}
	return nil
}

// Schema is an immutable snapshot of the database schema: every region,
// tablespace, table and index known to the catalog, each sorted by name.
type Schema struct {
	Regions     []RegionInfo
	Tablespaces []TablespaceInfo
	Tables      []TableInfo
	Indexes     []IndexInfo
}

// Catalog entry types re-exported for Schema consumers.
type (
	// RegionInfo is the catalog entry of a NoFTL region.
	RegionInfo = catalog.Region
	// TablespaceInfo is the catalog entry of a tablespace.
	TablespaceInfo = catalog.Tablespace
	// TableInfo is the catalog entry of a table.
	TableInfo = catalog.Table
	// IndexInfo is the catalog entry of an index.
	IndexInfo = catalog.Index
	// Column describes one table column.
	Column = catalog.Column
)

// Schema returns a snapshot of the full schema.  It replaces the former
// Catalog() escape hatch.
func (db *DB) Schema() Schema {
	return Schema{
		Regions:     db.cat.Regions(),
		Tablespaces: db.cat.Tablespaces(),
		Tables:      db.cat.Tables(),
		Indexes:     db.cat.Indexes(),
	}
}

// TimeCursor is a private virtual-time cursor publishing to the database's
// global simulated clock: it starts at time zero and every advance is
// published back, so the global clock tracks the furthest actor.
// Closed-loop drivers give each worker its own cursor.
type TimeCursor struct{ c *sim.Cursor }

// TimeCursor returns a new cursor at time zero that publishes its advances
// to the database's global clock.
func (db *DB) TimeCursor() *TimeCursor {
	return &TimeCursor{c: sim.NewCursor(db.clock)}
}

// Now returns the cursor's current virtual time.
func (tc *TimeCursor) Now() sim.Time { return tc.c.Now() }

// AdvanceTo moves the cursor forward to t (no-op when t is in the past).
func (tc *TimeCursor) AdvanceTo(t sim.Time) { tc.c.AdvanceTo(t) }

// Advance moves the cursor forward by d.
func (tc *TimeCursor) Advance(d sim.Duration) { tc.c.Advance(d) }

// ObjectStats returns the per-object I/O statistics collected so far, sorted
// by I/O rate.
func (db *DB) ObjectStats() []metrics.ObjectCounters {
	// Refresh object sizes from the physical structures before reporting.
	db.mu.RLock()
	for _, t := range db.tables {
		db.objStats.SetSize(t.Name(), t.heap.PageCount())
	}
	for _, i := range db.indexes {
		db.objStats.SetSize(i.Name(), i.tree.Pages())
	}
	db.mu.RUnlock()
	if db.log != nil {
		db.objStats.SetSize("WAL", int64(db.log.PageCount()))
	}
	return db.objStats.All()
}

// Advise runs the Region Advisor over the collected per-object statistics
// and returns a multi-region placement plan (the paper's Figure 2
// procedure).
func (db *DB) Advise(opts core.AdvisorOptions) core.PlacementPlan {
	return core.Advise(db.ObjectStats(), db.dev.Geometry().Dies(), opts)
}

// ResetStatistics zeroes every I/O, GC and transaction counter (device,
// space manager, buffer pool, per-object) without touching data.  Benchmarks
// call it at the end of the warm-up phase.
func (db *DB) ResetStatistics() {
	db.space.ResetCounters()
	db.pool.ResetCounters()
	db.objStats.Reset()
	db.clock.Reset()
}

// ---- DDL ----

// Exec parses and executes one or more DDL statements.  Failures are
// reported as *DDLError carrying the offending statement's text, its byte
// offset in sql, and — when attributable — the failing clause; the
// underlying cause stays reachable through errors.Is/As.
func (db *DB) Exec(sql string) error {
	if err := db.checkOpen(); err != nil {
		return err
	}
	stmts, err := ddl.ParseAll(sql)
	if err != nil {
		return syntaxDDLErr(sql, err)
	}
	for i, st := range stmts {
		end := len(sql)
		if i+1 < len(stmts) {
			end = stmts[i+1].Pos
		}
		text := strings.TrimRight(strings.TrimSpace(sql[st.Pos:end]), ";")
		clause, err := db.execStatement(st.Stmt)
		if err != nil {
			return ddlErr(text, st.Pos, clause, err)
		}
	}
	return nil
}

// execStatement executes one parsed statement, returning the failing clause
// name ("" when not attributable) alongside any error.
func (db *DB) execStatement(st ddl.Statement) (string, error) {
	switch s := st.(type) {
	case ddl.CreateRegion:
		spec := core.RegionSpec{
			Name:         s.Name,
			MaxChips:     s.MaxChips,
			MaxChannels:  s.MaxChannels,
			MaxSizeBytes: s.MaxSizeBytes,
		}
		gc, set, clause, err := applyGCClause(db.space.Options().GC, s.GCPolicy, s.GCStepPages, s.HotCold)
		if err != nil {
			return clause, err
		}
		if set {
			spec.GC = &gc
		}
		return "", db.CreateRegion(spec)
	case ddl.AlterRegion:
		return db.alterRegionGC(s)
	case ddl.CreateTablespace:
		extentPages := db.cfg.ExtentPages
		if s.ExtentSizeBytes > 0 {
			extentPages = int(s.ExtentSizeBytes) / db.dev.Geometry().PageSize
			if extentPages < 1 {
				extentPages = 1
			}
		}
		err := db.CreateTablespace(s.Name, s.Region, extentPages)
		if err != nil && s.Region != "" && errors.Is(err, ErrNotFound) {
			// The only not-found object a CREATE TABLESPACE can trip over is
			// its REGION clause; other failures (e.g. a duplicate name) are
			// not the clause's fault.
			return "REGION", err
		}
		return "", err
	case ddl.CreateTable:
		cols := make([]catalog.Column, len(s.Columns))
		for i, c := range s.Columns {
			cols[i] = catalog.Column{Name: c.Name, Type: c.Type}
		}
		_, err := db.CreateTable(s.Name, s.Tablespace, cols)
		if err != nil && s.Tablespace != "" && errors.Is(err, ErrNotFound) {
			return "TABLESPACE", err
		}
		return "", err
	case ddl.CreateIndex:
		_, err := db.CreateIndex(s.Name, s.Table, s.Columns, s.Unique, s.Tablespace)
		return "", err
	case ddl.DropStatement:
		return s.Kind, db.execDrop(s)
	default:
		return "", fmt.Errorf("%w: statement %T", ErrUnsupported, st)
	}
}

func (db *DB) execDrop(s ddl.DropStatement) error {
	switch s.Kind {
	case "REGION":
		return db.dropRegion(s.Name)
	case "TABLE":
		return db.DropTable(s.Name)
	case "TABLESPACE":
		return db.DropTablespace(s.Name)
	case "INDEX":
		return db.DropIndex(s.Name)
	default:
		return fmt.Errorf("%w: cannot drop %q", ErrUnsupported, s.Kind)
	}
}

// applyGCClause folds a DDL GC clause (CREATE/ALTER REGION options) into a
// base policy, reporting whether any option was actually set and, on error,
// which clause was at fault.
func applyGCClause(base core.GCPolicy, policy string, stepPages int, hotCold string) (core.GCPolicy, bool, string, error) {
	set := false
	if policy != "" {
		v, err := core.ParseVictimPolicy(policy)
		if err != nil {
			return base, false, "GC_POLICY", err
		}
		base.Victim = v
		set = true
	}
	if stepPages != 0 {
		if stepPages < 0 {
			return base, false, "GC_STEP_PAGES", fmt.Errorf("noftl: GC_STEP_PAGES must be positive, got %d", stepPages)
		}
		base.StepPages = stepPages
		set = true
	}
	switch strings.ToUpper(hotCold) {
	case "":
	case "ON":
		base.DisableHotCold = false
		set = true
	case "OFF":
		base.DisableHotCold = true
		set = true
	default:
		return base, false, "HOT_COLD", fmt.Errorf("noftl: HOT_COLD must be ON or OFF, got %q", hotCold)
	}
	return base, set, "", nil
}

// alterRegionGC executes ALTER REGION … SET: the space manager switches the
// live policy and the catalog records it.
func (db *DB) alterRegionGC(s ddl.AlterRegion) (string, error) {
	cur, ok := db.space.GCPolicyOf(s.Name)
	if !ok {
		return "REGION", fmt.Errorf("%w: region %q", ErrNotFound, s.Name)
	}
	gc, set, clause, err := applyGCClause(cur, s.GCPolicy, s.GCStepPages, s.HotCold)
	if err != nil {
		return clause, err
	}
	if !set {
		return "", nil
	}
	if err := db.space.SetGCPolicy(s.Name, gc); err != nil {
		return "", err
	}
	if s.Name == core.DefaultRegionName {
		// The default region has no catalog entry; the live policy is all
		// there is to update.
		return "", db.checkpointAfterDDL()
	}
	if err := db.cat.UpdateRegionGC(s.Name, gc); err != nil {
		return "", err
	}
	return "", db.checkpointAfterDDL()
}

// dropRegion removes a region from both catalog and space manager (the DROP
// REGION path; Admin().DropRegion is the programmatic form).
func (db *DB) dropRegion(name string) error {
	if err := db.cat.DropRegion(name); err != nil {
		return publicErr(err)
	}
	if err := db.space.DropRegion(name); err != nil {
		return publicErr(err)
	}
	return db.checkpointAfterDDL()
}

// CreateRegion creates a NoFTL region (programmatic form of CREATE REGION).
func (db *DB) CreateRegion(spec RegionSpec) error {
	if err := db.checkOpen(); err != nil {
		return err
	}
	r, err := db.space.CreateRegion(spec)
	if err != nil {
		return publicErr(err)
	}
	gc := db.space.Options().GC
	if spec.GC != nil {
		gc = *spec.GC
	}
	err = db.cat.AddRegion(catalog.Region{
		Name:         spec.Name,
		ID:           r.ID(),
		MaxChips:     spec.MaxChips,
		MaxChannels:  spec.MaxChannels,
		MaxSizeBytes: spec.MaxSizeBytes,
		GC:           gc,
	})
	if err != nil {
		_ = db.space.DropRegion(spec.Name)
		return publicErr(err)
	}
	return db.checkpointAfterDDL()
}

// CreateTablespace creates a tablespace bound to a region ("" or "DEFAULT"
// means the default region).
func (db *DB) CreateTablespace(name, region string, extentPages int) error {
	if err := db.checkOpen(); err != nil {
		return err
	}
	regionID := core.DefaultRegionID
	regionName := core.DefaultRegionName
	if region != "" && region != core.DefaultRegionName {
		r, ok := db.space.Region(region)
		if !ok {
			return fmt.Errorf("%w: region %q", ErrNotFound, region)
		}
		regionID = r.ID()
		regionName = region
	}
	if extentPages <= 0 {
		extentPages = db.cfg.ExtentPages
	}
	if err := db.cat.AddTablespace(catalog.Tablespace{Name: name, Region: regionName, ExtentPages: extentPages}); err != nil {
		return publicErr(err)
	}
	db.mu.Lock()
	db.tablespaces[name] = storage.NewTablespace(name, regionID, extentPages, db.space)
	db.mu.Unlock()
	return db.checkpointAfterDDL()
}

// tablespace returns the runtime tablespace object.
func (db *DB) tablespace(name string) (*storage.Tablespace, error) {
	if name == "" {
		name = "SYSTEM"
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	ts, ok := db.tablespaces[name]
	if !ok {
		return nil, fmt.Errorf("%w: tablespace %q", ErrNotFound, name)
	}
	return ts, nil
}

// CreateTable creates a table in the given tablespace ("" = SYSTEM).
func (db *DB) CreateTable(name, tablespace string, columns []Column) (*Table, error) {
	if err := db.checkOpen(); err != nil {
		return nil, err
	}
	ts, err := db.tablespace(tablespace)
	if err != nil {
		return nil, err
	}
	objID := db.cat.NextObjectID()
	if err := db.cat.AddTable(catalog.Table{Name: name, ObjectID: objID, Tablespace: ts.Name(), Columns: columns}); err != nil {
		return nil, publicErr(err)
	}
	heap := storage.NewHeapFile(name, objID, ts, db.pool)
	t := &Table{db: db, heap: heap, name: name, objectID: objID}
	db.mu.Lock()
	db.tables[name] = t
	db.objectNames[objID] = name
	db.mu.Unlock()
	db.objStats.Register(name, "table", ts.Name())
	return t, db.checkpointAfterDDL()
}

// DropTable removes a table, its indexes, and trims their pages on flash so
// the garbage collector can reclaim the space.
func (db *DB) DropTable(name string) error {
	if err := db.checkOpen(); err != nil {
		return err
	}
	db.mu.Lock()
	t, ok := db.tables[name]
	if !ok {
		db.mu.Unlock()
		return fmt.Errorf("%w: table %q", ErrNotFound, name)
	}
	delete(db.tables, name)
	delete(db.objectNames, t.objectID)
	var droppedIndexes []*Index
	for iname, idx := range db.indexes {
		if idx.meta.Table == name {
			droppedIndexes = append(droppedIndexes, idx)
			delete(db.indexes, iname)
			delete(db.objectNames, idx.meta.ObjectID)
		}
	}
	db.mu.Unlock()
	if err := db.cat.DropTable(name); err != nil {
		return publicErr(err)
	}
	// Trim the heap's and the indexes' pages so the space manager can
	// reclaim them (never-flushed pages are simply unmapped).
	db.trimPages(t.heap.Pages())
	for _, idx := range droppedIndexes {
		db.trimPages(idx.tree.PageList())
	}
	return db.checkpointAfterDDL()
}

// trimPages drops the pages from the buffer pool and unmaps them in the
// space manager.
func (db *DB) trimPages(lpns []core.LPN) {
	for _, lpn := range lpns {
		db.pool.Drop(lpn)
		_ = db.space.TrimPage(lpn) // never-flushed pages are simply unmapped
	}
}

// DropIndex removes an index and trims its pages on flash (the DROP INDEX
// path).
func (db *DB) DropIndex(name string) error {
	if err := db.checkOpen(); err != nil {
		return err
	}
	db.mu.Lock()
	idx, ok := db.indexes[name]
	if !ok {
		db.mu.Unlock()
		return fmt.Errorf("%w: index %q", ErrNotFound, name)
	}
	delete(db.indexes, name)
	delete(db.objectNames, idx.meta.ObjectID)
	db.mu.Unlock()
	if err := db.cat.DropIndex(name); err != nil {
		return publicErr(err)
	}
	db.trimPages(idx.tree.PageList())
	return db.checkpointAfterDDL()
}

// DropTablespace removes an empty tablespace (the DROP TABLESPACE path).
// Tablespaces still holding tables or indexes cannot be dropped
// (ErrConflict); the SYSTEM tablespace can never be dropped
// (ErrUnsupported).  The tablespace's trimmed pages were reclaimed when its
// objects were dropped; any partially used extent tail is unmapped space the
// garbage collector already treats as free.
func (db *DB) DropTablespace(name string) error {
	if err := db.checkOpen(); err != nil {
		return err
	}
	if name == "" || name == "SYSTEM" {
		return fmt.Errorf("%w: the SYSTEM tablespace cannot be dropped", ErrUnsupported)
	}
	if err := db.cat.DropTablespace(name); err != nil {
		return publicErr(err)
	}
	db.mu.Lock()
	delete(db.tablespaces, name)
	db.mu.Unlock()
	return db.checkpointAfterDDL()
}

// CreateIndex creates a B+-tree index on a table in the given tablespace
// ("" = the table's tablespace).
func (db *DB) CreateIndex(name, table string, columns []string, unique bool, tablespace string) (*Index, error) {
	if err := db.checkOpen(); err != nil {
		return nil, err
	}
	db.mu.RLock()
	_, ok := db.tables[table]
	db.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: table %q", ErrNotFound, table)
	}
	if tablespace == "" {
		tmeta, _ := db.cat.Table(table)
		tablespace = tmeta.Tablespace
	}
	ts, err := db.tablespace(tablespace)
	if err != nil {
		return nil, err
	}
	objID := db.cat.NextObjectID()
	meta := catalog.Index{Name: name, ObjectID: objID, Table: table, Columns: columns, Unique: unique, Tablespace: ts.Name()}
	if err := db.cat.AddIndex(meta); err != nil {
		return nil, publicErr(err)
	}
	tree, _, err := btreeNew(db.clock.Now(), name, objID, ts, db.pool)
	if err != nil {
		return nil, err
	}
	idx := &Index{db: db, tree: tree, meta: meta}
	db.mu.Lock()
	db.indexes[name] = idx
	db.objectNames[objID] = name
	db.mu.Unlock()
	db.objStats.Register(name, "index", ts.Name())
	return idx, db.checkpointAfterDDL()
}

// Table returns a handle to an existing table.
func (db *DB) Table(name string) (*Table, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[name]
	return t, ok
}

// Index returns a handle to an existing index.
func (db *DB) Index(name string) (*Index, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	i, ok := db.indexes[name]
	return i, ok
}

// Tables returns the names of all tables.
func (db *DB) Tables() []string {
	var out []string
	for _, t := range db.cat.Tables() {
		out = append(out, t.Name)
	}
	return out
}

// Begin starts a transaction whose virtual clock starts at the global
// simulated time.
func (db *DB) Begin() *Tx {
	return db.BeginAt(db.clock.Now())
}

// BeginAt starts a transaction at an explicit virtual time (used by the
// closed-loop benchmark terminals, which carry their own time cursors).
// Every transaction holds the checkpoint quiesce lock shared until it
// commits or aborts, so checkpoints capture transaction-consistent
// snapshots.
func (db *DB) BeginAt(now sim.Time) *Tx {
	db.ckptMu.RLock()
	return &Tx{db: db, inner: db.txns.Begin(now), quiesced: true}
}

// Update runs fn inside a read-write transaction.  The transaction is
// committed when fn returns nil (and no iteration error is pending on the
// transaction, see Tx.Err) and aborted otherwise; a panic inside fn aborts
// before re-panicking.
func (db *DB) Update(fn func(*Tx) error) error {
	if err := db.checkOpen(); err != nil {
		return err
	}
	tx := db.Begin()
	committing := false
	// One abort site covers fn errors, pending iterator errors and panics.
	defer func() {
		if !committing {
			tx.Abort()
		}
	}()
	if err := fn(tx); err != nil {
		return err
	}
	if err := tx.Err(); err != nil {
		return err
	}
	committing = true
	_, err := tx.Commit()
	return err
}

// View runs fn inside a read-only transaction.  The transaction is always
// released at the end without forcing the log; fn's error (or a pending
// iteration error) is returned.  View does not enforce read-only access —
// it is a convention: use Update when fn modifies data.
func (db *DB) View(fn func(*Tx) error) error {
	if err := db.checkOpen(); err != nil {
		return err
	}
	tx := db.Begin()
	defer tx.Abort()
	if err := fn(tx); err != nil {
		return err
	}
	return tx.Err()
}

// FlushAll writes every dirty buffered page to flash (checkpoint) and
// returns the advanced virtual time.
func (db *DB) FlushAll(now sim.Time) (sim.Time, error) {
	if err := db.checkOpen(); err != nil {
		return now, err
	}
	return db.pool.FlushAll(now)
}

// Checkpoint quiesces transactions, flushes all dirty pages, appends a full
// logical snapshot of the database to the WAL, truncates the log below the
// snapshot, and returns the advanced time.  Crash recovery restores the last
// complete snapshot and replays only the records written after it, so
// checkpoint frequency bounds recovery work (see WithCheckpointEvery).
func (db *DB) Checkpoint(now sim.Time) (sim.Time, error) {
	if err := db.checkOpen(); err != nil {
		return now, err
	}
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()
	return db.checkpointLocked(now)
}
