package noftl

import (
	"io"
	"time"

	"noftl/internal/core"
	"noftl/internal/flash"
)

// Re-exported configuration types, so callers can tune every layer without
// importing internal packages.
type (
	// FlashConfig configures the simulated native flash device (geometry,
	// NAND timing, endurance).
	FlashConfig = flash.Config
	// DeviceGeometry describes the flash device's physical shape (channels,
	// dies, blocks, pages).
	DeviceGeometry = flash.Geometry
	// SpaceOptions configures the NoFTL space manager (placement mode,
	// over-provisioning, GC watermarks and default policy, wear leveling).
	SpaceOptions = core.Options
	// GCPolicy is a per-region garbage-collection policy (victim selection,
	// background step size, hot/cold separation).
	GCPolicy = core.GCPolicy
	// PlacementMode selects region-aware or traditional placement.
	PlacementMode = core.PlacementMode
	// FaultPlan configures deterministic fault injection on the flash device
	// (crash points, torn tail writes, program and erase failures).
	FaultPlan = flash.FaultPlan
)

// Option is a functional configuration option for Open.  Options are applied
// in order over DefaultConfig(), so later options override earlier ones and
// a preset (WithConfig, WithPaperScale) can be refined by the options that
// follow it.
type Option func(*Config)

// WithConfig replaces the whole configuration with cfg.  Use it to start
// from a fully built Config (e.g. an experiment preset) and refine it with
// further options.
func WithConfig(cfg Config) Option {
	return func(c *Config) { *c = cfg }
}

// WithFlash replaces the flash device configuration.
func WithFlash(fc FlashConfig) Option {
	return func(c *Config) { c.Flash = fc }
}

// WithGeometry replaces only the device geometry, keeping NAND timing and
// endurance as configured.
func WithGeometry(geo DeviceGeometry) Option {
	return func(c *Config) { c.Flash.Geometry = geo }
}

// WithSpace replaces the space-manager options.
func WithSpace(opts SpaceOptions) Option {
	return func(c *Config) { c.Space = opts }
}

// WithPlacement selects the placement mode (PlacementRegions or
// PlacementTraditional).
func WithPlacement(mode PlacementMode) Option {
	return func(c *Config) { c.Space.Mode = mode }
}

// WithGCPolicy sets the default per-region garbage-collection policy
// (overridable per region via CREATE/ALTER REGION).
func WithGCPolicy(gc GCPolicy) Option {
	return func(c *Config) { c.Space.GC = gc }
}

// WithBufferPoolPages sets the number of page frames in the buffer pool.
func WithBufferPoolPages(n int) Option {
	return func(c *Config) { c.BufferPoolPages = n }
}

// WithWAL enables or disables write-ahead logging.
func WithWAL(enabled bool) Option {
	return func(c *Config) { c.WAL = enabled }
}

// WithBufferPoolShards overrides the buffer pool's shard count (zero = size
// automatically from the frame count).  More shards reduce frame-table
// contention between concurrent workers; each shard runs its own CLOCK over
// its slice of the frames.
func WithBufferPoolShards(n int) Option {
	return func(c *Config) { c.BufferPoolShards = n }
}

// WithLockTimeout sets the virtual-time budget of a lock wait (see
// Config.LockTimeout).  Deadlocks are detected without it.
func WithLockTimeout(d time.Duration) Option {
	return func(c *Config) { c.LockTimeout = d }
}

// WithCPUPerOp sets the CPU time charged per row or index operation.
func WithCPUPerOp(d time.Duration) Option {
	return func(c *Config) { c.CPUPerOp = d }
}

// WithExtentPages sets the default tablespace extent size in pages.
func WithExtentPages(n int) Option {
	return func(c *Config) { c.ExtentPages = n }
}

// WithReadAhead sets the number of sequentially-next pages the buffer pool
// prefetches through the I/O scheduler on a demand miss.  Read-ahead is off
// by default (see Config.ReadAheadPages); scan-heavy workloads typically
// enable 4–8 pages:
//
//	db, _ := noftl.Open(noftl.WithReadAhead(8))
func WithReadAhead(pages int) Option {
	return func(c *Config) { c.ReadAheadPages = pages }
}

// WithGroupWriteBack enables or disables batched (die-striped) write-back of
// dirty pages.  It is on by default.
func WithGroupWriteBack(enabled bool) Option {
	return func(c *Config) { c.DisableGroupWriteBack = !enabled }
}

// WithTrace enables event tracing and dumps the recorded events to w as
// JSONL when the database is closed (the stream the noftl-trace CLI
// consumes).  Tracing is off by default; see Config.TraceWriter.
func WithTrace(w io.Writer) Option {
	return func(c *Config) { c.TraceWriter = w }
}

// WithTraceBuffer sets the trace ring-buffer capacity in events and enables
// tracing (even without a TraceWriter — the events are then reachable through
// Admin().TraceDump).  Zero keeps the 65536-event default capacity.
func WithTraceBuffer(n int) Option {
	return func(c *Config) {
		c.TraceBufferEvents = n
		if c.TraceBufferEvents <= 0 {
			c.TraceBufferEvents = -1 // explicit "enabled, default capacity"
		}
	}
}

// WithCheckpointEvery enables periodic checkpoints: one is taken whenever
// interval of simulated time has passed or bytes of WAL have been appended
// since the last checkpoint (zero disables the respective trigger; the checks
// run after each commit).  Checkpoints bound crash-recovery replay: recovery
// restores the last snapshot and replays only the log written after it.
//
//	db, _ := noftl.Open(noftl.WithCheckpointEvery(time.Second, 256<<10))
func WithCheckpointEvery(interval time.Duration, bytes int64) Option {
	return func(c *Config) {
		c.CheckpointEvery = interval
		c.CheckpointEveryBytes = bytes
	}
}

// WithLightCheckpoints switches checkpoints to the light form: flush dirty
// pages and truncate the whole WAL without appending a logical snapshot.
// This bounds the WAL at near-zero cost but gives up crash recovery (Reopen
// refuses such a log) — the classic reduced-durability benchmark regime.
func WithLightCheckpoints() Option {
	return func(c *Config) { c.DisableSnapshotCheckpoints = true }
}

// WithFaultPlan arms deterministic fault injection on the flash device the
// moment it is created.  With the same plan (and the same workload) every
// fault fires at the same point, so crash tests are reproducible.  See
// Admin().ArmFaults to arm a plan later (e.g. after schema setup).
func WithFaultPlan(plan FaultPlan) Option {
	return func(c *Config) { c.FaultPlan = plan }
}

// WithMetricsListener serves Prometheus text metrics (plus /healthz and
// pprof) on an HTTP listener at addr, e.g. "127.0.0.1:9090" or
// "127.0.0.1:0" for a free port (DB.MetricsAddr() reports the bound
// address).
func WithMetricsListener(addr string) Option {
	return func(c *Config) { c.MetricsAddr = addr }
}

// WithPaperScale configures the flash device like the paper's evaluation
// platform (64 dies behind 8 channels); blocksPerDie scales the device size.
// It is the option form of PaperConfig.
func WithPaperScale(blocksPerDie int) Option {
	return func(c *Config) { c.Flash = flash.PaperConfig(blocksPerDie) }
}

// Open creates a database over a fresh simulated flash device.  The
// configuration starts from DefaultConfig() and is refined by the options in
// order:
//
//	db, err := noftl.Open()                                  // all defaults
//	db, err := noftl.Open(noftl.WithBufferPoolPages(4096),
//	                      noftl.WithReadAhead(8))
//	db, err := noftl.Open(noftl.WithPaperScale(512))         // paper platform
func Open(opts ...Option) (*DB, error) {
	cfg := DefaultConfig()
	for _, opt := range opts {
		opt(&cfg)
	}
	return OpenConfig(cfg)
}

// OpenConfig creates a database from a fully built Config, then applies any
// further options.  Open is the idiomatic entry point; OpenConfig suits
// callers that assemble configurations programmatically (benchmark
// harnesses, tests).
func OpenConfig(cfg Config, opts ...Option) (*DB, error) {
	for _, opt := range opts {
		opt(&cfg)
	}
	cfg = cfg.withDefaults()
	dev, err := flash.NewDevice(cfg.Flash)
	if err != nil {
		return nil, err
	}
	if cfg.FaultPlan != (FaultPlan{}) {
		dev.Arm(cfg.FaultPlan)
	}
	return openOn(cfg, dev)
}
