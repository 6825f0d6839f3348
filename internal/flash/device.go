package flash

import (
	"fmt"
	"sync"
	"time"

	"noftl/internal/metrics"
	"noftl/internal/sim"
)

// Config configures a simulated native flash device.
type Config struct {
	// Geometry is the physical layout of the device.
	Geometry Geometry
	// Timing holds the NAND and channel latencies.
	Timing Timing
	// EraseEndurance is the number of program/erase cycles after which a
	// block is marked bad.  Zero means unlimited endurance.
	EraseEndurance int64
	// StoreData controls whether page payloads are retained in memory.  The
	// database engine needs true; pure I/O-pattern benchmarks may disable it
	// to save memory.
	StoreData bool
	// EnforceProgramOrder enables the NAND constraint that pages within a
	// block must be programmed in ascending order without gaps.
	EnforceProgramOrder bool
}

// DefaultConfig returns a small device suitable for tests and examples:
// 4 channels x 2 dies (8 dies), 128 blocks per die, 64 pages per block,
// 4 KiB pages (256 MiB raw), SLC-like timing.
func DefaultConfig() Config {
	return Config{
		Geometry: Geometry{
			Channels:       4,
			DiesPerChannel: 2,
			PlanesPerDie:   2,
			BlocksPerDie:   128,
			PagesPerBlock:  64,
			PageSize:       4096,
		},
		Timing:              DefaultTiming(),
		EraseEndurance:      0,
		StoreData:           true,
		EnforceProgramOrder: true,
	}
}

// PaperConfig returns a geometry resembling the paper's evaluation platform:
// 64 dies behind 8 channels.  Blocks-per-die is a parameter because the
// reproduction scales the database size; pages per block and page size match
// typical SLC NAND (64 x 4 KiB).
func PaperConfig(blocksPerDie int) Config {
	cfg := DefaultConfig()
	cfg.Geometry = Geometry{
		Channels:       8,
		DiesPerChannel: 8,
		PlanesPerDie:   2,
		BlocksPerDie:   blocksPerDie,
		PagesPerBlock:  64,
		PageSize:       4096,
	}
	return cfg
}

type pageState uint8

const (
	pageErased pageState = iota
	pageProgrammed
)

// blockState is the per-erase-block bookkeeping of the device model.
type blockState struct {
	eraseCount int64
	bad        bool
	nextPage   int // next page to program under the sequential constraint
	states     []pageState
	meta       []PageMeta
	data       [][]byte // lazily allocated when StoreData
}

// dieState groups the blocks of one die under a single lock.
type dieState struct {
	mu     sync.Mutex
	blocks []blockState
	// spare holds page images returned by EraseBlock, reused by the next
	// programs on the die so that a program does not allocate.  A spare
	// image keeps its stale bytes; every reuse overwrites all of them.
	spare [][]byte

	// statistics (guarded by mu)
	reads     int64
	programs  int64
	erases    int64
	copybacks int64
	metaReads int64
}

// Device is a simulated native flash device.  All command methods are safe
// for concurrent use; contention on dies and channels is modelled in virtual
// time, not by blocking callers.
type Device struct {
	cfg      Config
	geo      Geometry
	dies     []*dieState
	dieRes   []*sim.Resource
	chanRes  []*sim.Resource
	set      *metrics.Set
	reads    *metrics.Counter
	programs *metrics.Counter
	erases   *metrics.Counter
	copyback *metrics.Counter
	metaRds  *metrics.Counter
	badBlks  *metrics.Counter

	// fault injection (see fault.go); nil when no plan is armed
	faultMu sync.Mutex
	fault   *faultState
}

// NewDevice creates a device with the given configuration.
func NewDevice(cfg Config) (*Device, error) {
	if err := cfg.Geometry.Validate(); err != nil {
		return nil, err
	}
	d := &Device{
		cfg: cfg,
		geo: cfg.Geometry,
		set: metrics.NewSet(),
	}
	d.reads = d.set.Counter("flash.read_page")
	d.programs = d.set.Counter("flash.program_page")
	d.erases = d.set.Counter("flash.erase_block")
	d.copyback = d.set.Counter("flash.copyback")
	d.metaRds = d.set.Counter("flash.read_meta")
	d.badBlks = d.set.Counter("flash.bad_blocks")

	nDies := d.geo.Dies()
	d.dies = make([]*dieState, nDies)
	d.dieRes = make([]*sim.Resource, nDies)
	for i := 0; i < nDies; i++ {
		ds := &dieState{blocks: make([]blockState, d.geo.BlocksPerDie)}
		for b := range ds.blocks {
			ds.blocks[b].states = make([]pageState, d.geo.PagesPerBlock)
			ds.blocks[b].meta = make([]PageMeta, d.geo.PagesPerBlock)
		}
		d.dies[i] = ds
		d.dieRes[i] = sim.NewResource(fmt.Sprintf("die-%d", i))
	}
	d.chanRes = make([]*sim.Resource, d.geo.Channels)
	for c := range d.chanRes {
		d.chanRes[c] = sim.NewResource(fmt.Sprintf("chan-%d", c))
	}
	return d, nil
}

// Geometry returns the device geometry.
func (d *Device) Geometry() Geometry { return d.geo }

// Timing returns the device latency parameters.
func (d *Device) Timing() Timing { return d.cfg.Timing }

// Metrics returns the device metric set (operation counters).
func (d *Device) Metrics() *metrics.Set { return d.set }

// pageImage returns a PageSize buffer for a page of blk, taking it from the
// die's spare images when one is left, and makes sure blk can store images.
// Caller holds ds.mu.
func (d *Device) pageImage(ds *dieState, blk *blockState) []byte {
	if blk.data == nil {
		blk.data = make([][]byte, d.geo.PagesPerBlock)
	}
	n := len(ds.spare)
	if n == 0 {
		return make([]byte, d.geo.PageSize)
	}
	img := ds.spare[n-1]
	ds.spare[n-1] = nil
	ds.spare = ds.spare[:n-1]
	return img
}

// channel returns the channel resource serving a die.
func (d *Device) channel(die int) *sim.Resource {
	return d.chanRes[d.geo.ChannelOfDie(die)]
}

// ReadPage reads the page at addr.  If buf is non-nil it must be PageSize
// bytes long and receives the page data; otherwise a fresh buffer is
// allocated (nil when the device does not store data).  It returns the page
// metadata and the virtual completion time.
func (d *Device) ReadPage(now sim.Time, addr Addr, buf []byte) ([]byte, PageMeta, sim.Time, error) {
	if !d.geo.ValidAddr(addr) {
		return nil, PageMeta{}, now, fmt.Errorf("%w: %v", ErrOutOfRange, addr)
	}
	if fd := d.faultOp(now, opRead); fd.crash {
		return nil, PageMeta{}, now, ErrCrashed
	}
	ds := d.dies[addr.Die]
	ds.mu.Lock()
	blk := &ds.blocks[addr.Block]
	if blk.bad {
		ds.mu.Unlock()
		return nil, PageMeta{}, now, fmt.Errorf("%w: %v", ErrBadBlock, addr.BlockAddr())
	}
	if blk.states[addr.Page] != pageProgrammed {
		ds.mu.Unlock()
		return nil, PageMeta{}, now, fmt.Errorf("%w: %v", ErrReadErased, addr)
	}
	meta := blk.meta[addr.Page]
	if d.cfg.StoreData && blk.data != nil && blk.data[addr.Page] != nil {
		if buf == nil {
			buf = make([]byte, d.geo.PageSize)
		}
		copy(buf, blk.data[addr.Page])
	} else if !d.cfg.StoreData {
		buf = nil
	}
	ds.reads++
	ds.mu.Unlock()

	_, sensed := d.dieRes[addr.Die].Acquire(now, d.cfg.Timing.ReadPage)
	_, done := d.channel(addr.Die).Acquire(sensed, d.cfg.Timing.Transfer)
	d.reads.Inc()
	return buf, meta, done, nil
}

// ReadMeta reads only the OOB metadata of the page at addr.  The page must
// have been programmed.  It is cheaper than a full ReadPage because only the
// metadata crosses the channel.
func (d *Device) ReadMeta(now sim.Time, addr Addr) (PageMeta, sim.Time, error) {
	if !d.geo.ValidAddr(addr) {
		return PageMeta{}, now, fmt.Errorf("%w: %v", ErrOutOfRange, addr)
	}
	if fd := d.faultOp(now, opRead); fd.crash {
		return PageMeta{}, now, ErrCrashed
	}
	ds := d.dies[addr.Die]
	ds.mu.Lock()
	blk := &ds.blocks[addr.Block]
	if blk.bad {
		ds.mu.Unlock()
		return PageMeta{}, now, fmt.Errorf("%w: %v", ErrBadBlock, addr.BlockAddr())
	}
	if blk.states[addr.Page] != pageProgrammed {
		ds.mu.Unlock()
		return PageMeta{}, now, fmt.Errorf("%w: %v", ErrReadErased, addr)
	}
	meta := blk.meta[addr.Page]
	ds.metaReads++
	ds.mu.Unlock()

	_, sensed := d.dieRes[addr.Die].Acquire(now, d.cfg.Timing.ReadPage)
	_, done := d.channel(addr.Die).Acquire(sensed, d.cfg.Timing.MetaTransfer)
	d.metaRds.Inc()
	return meta, done, nil
}

// ProgramPage writes data and metadata to the erased page at addr.  The
// payload must be exactly PageSize bytes (it may be nil when the device does
// not store data).  The device copies data before returning, so the caller
// may reuse the buffer at once.  Programming a non-erased page or violating
// the sequential-programming constraint fails.
func (d *Device) ProgramPage(now sim.Time, addr Addr, data []byte, meta PageMeta) (sim.Time, error) {
	if !d.geo.ValidAddr(addr) {
		return now, fmt.Errorf("%w: %v", ErrOutOfRange, addr)
	}
	if d.cfg.StoreData && data != nil && len(data) != d.geo.PageSize {
		return now, fmt.Errorf("%w: got %d bytes, want %d", ErrPageSize, len(data), d.geo.PageSize)
	}
	if fd := d.faultOp(now, opProgram); fd.crash {
		if fd.tornProgram {
			d.programTorn(addr, data, meta, fd.tornBytes)
		}
		return now, ErrCrashed
	} else if fd.failProgram {
		return now, fmt.Errorf("%w: %v", ErrProgramFault, addr)
	}
	ds := d.dies[addr.Die]
	ds.mu.Lock()
	blk := &ds.blocks[addr.Block]
	if blk.bad {
		ds.mu.Unlock()
		return now, fmt.Errorf("%w: %v", ErrBadBlock, addr.BlockAddr())
	}
	if blk.states[addr.Page] != pageErased {
		ds.mu.Unlock()
		return now, fmt.Errorf("%w: %v", ErrNotErased, addr)
	}
	if d.cfg.EnforceProgramOrder && addr.Page != blk.nextPage {
		ds.mu.Unlock()
		return now, fmt.Errorf("%w: %v (next programmable page is %d)", ErrProgramOrder, addr, blk.nextPage)
	}
	blk.states[addr.Page] = pageProgrammed
	blk.meta[addr.Page] = meta
	if addr.Page >= blk.nextPage {
		blk.nextPage = addr.Page + 1
	}
	if d.cfg.StoreData && data != nil {
		img := d.pageImage(ds, blk)
		copy(img, data)
		blk.data[addr.Page] = img
	}
	ds.programs++
	ds.mu.Unlock()

	_, transferred := d.channel(addr.Die).Acquire(now, d.cfg.Timing.Transfer)
	_, done := d.dieRes[addr.Die].Acquire(transferred, d.cfg.Timing.ProgramPage)
	d.programs.Inc()
	return done, nil
}

// EraseBlock erases a block, returning all of its pages to the erased state
// and their images to the die's spare list.  When the block reaches the
// configured endurance limit it is marked bad and subsequent operations on
// it fail with ErrBadBlock.
func (d *Device) EraseBlock(now sim.Time, b BlockAddr) (sim.Time, error) {
	if !d.geo.ValidBlock(b) {
		return now, fmt.Errorf("%w: %v", ErrOutOfRange, b)
	}
	if fd := d.faultOp(now, opErase); fd.crash {
		return now, ErrCrashed
	} else if fd.failErase {
		ds := d.dies[b.Die]
		ds.mu.Lock()
		if !ds.blocks[b.Block].bad {
			ds.blocks[b.Block].bad = true
			d.badBlks.Inc()
		}
		ds.mu.Unlock()
		return now, fmt.Errorf("%w: %v", ErrEraseFault, b)
	}
	ds := d.dies[b.Die]
	ds.mu.Lock()
	blk := &ds.blocks[b.Block]
	if blk.bad {
		ds.mu.Unlock()
		return now, fmt.Errorf("%w: %v", ErrBadBlock, b)
	}
	for i := range blk.states {
		blk.states[i] = pageErased
		blk.meta[i] = PageMeta{}
		if blk.data != nil && blk.data[i] != nil {
			ds.spare = append(ds.spare, blk.data[i])
			blk.data[i] = nil
		}
	}
	blk.nextPage = 0
	blk.eraseCount++
	if d.cfg.EraseEndurance > 0 && blk.eraseCount >= d.cfg.EraseEndurance {
		blk.bad = true
		d.badBlks.Inc()
	}
	ds.erases++
	ds.mu.Unlock()

	_, done := d.dieRes[b.Die].Acquire(now, d.cfg.Timing.EraseBlock)
	d.erases.Inc()
	return done, nil
}

// Copyback copies a programmed page to an erased page on the same die
// without transferring the data over the channel (the NAND-internal copyback
// command used by garbage collection).  The destination inherits the source
// metadata and the method returns it so the caller can update its mapping.
func (d *Device) Copyback(now sim.Time, src, dst Addr) (PageMeta, sim.Time, error) {
	if !d.geo.ValidAddr(src) || !d.geo.ValidAddr(dst) {
		return PageMeta{}, now, fmt.Errorf("%w: %v -> %v", ErrOutOfRange, src, dst)
	}
	if src.Die != dst.Die {
		return PageMeta{}, now, fmt.Errorf("%w: %v -> %v", ErrCopybackCrossDie, src, dst)
	}
	if fd := d.faultOp(now, opCopyback); fd.crash {
		return PageMeta{}, now, ErrCrashed
	} else if fd.failProgram {
		return PageMeta{}, now, fmt.Errorf("%w: copyback %v -> %v", ErrProgramFault, src, dst)
	}
	ds := d.dies[src.Die]
	ds.mu.Lock()
	sblk := &ds.blocks[src.Block]
	dblk := &ds.blocks[dst.Block]
	if sblk.bad || dblk.bad {
		ds.mu.Unlock()
		return PageMeta{}, now, fmt.Errorf("%w: copyback %v -> %v", ErrBadBlock, src, dst)
	}
	if sblk.states[src.Page] != pageProgrammed {
		ds.mu.Unlock()
		return PageMeta{}, now, fmt.Errorf("%w: copyback source %v", ErrReadErased, src)
	}
	if dblk.states[dst.Page] != pageErased {
		ds.mu.Unlock()
		return PageMeta{}, now, fmt.Errorf("%w: copyback destination %v", ErrNotErased, dst)
	}
	if d.cfg.EnforceProgramOrder && dst.Page != dblk.nextPage {
		ds.mu.Unlock()
		return PageMeta{}, now, fmt.Errorf("%w: copyback destination %v (next is %d)", ErrProgramOrder, dst, dblk.nextPage)
	}
	meta := sblk.meta[src.Page]
	dblk.states[dst.Page] = pageProgrammed
	dblk.meta[dst.Page] = meta
	if dst.Page >= dblk.nextPage {
		dblk.nextPage = dst.Page + 1
	}
	if d.cfg.StoreData && sblk.data != nil && sblk.data[src.Page] != nil {
		img := d.pageImage(ds, dblk)
		copy(img, sblk.data[src.Page])
		dblk.data[dst.Page] = img
	}
	ds.copybacks++
	ds.mu.Unlock()

	_, done := d.dieRes[src.Die].Acquire(now, d.cfg.Timing.ReadPage+d.cfg.Timing.ProgramPage)
	d.copyback.Inc()
	return meta, done, nil
}

// programTorn applies the durable side effect of a program interrupted by a
// crash: the page is marked programmed with its OOB metadata intact, but only
// a prefix of the payload was written — the final tornBytes bytes stay zero.
// Validation failures are silently ignored (the caller is crashing anyway).
func (d *Device) programTorn(addr Addr, data []byte, meta PageMeta, tornBytes int) {
	if !d.cfg.StoreData || data == nil || len(data) != d.geo.PageSize {
		return
	}
	ds := d.dies[addr.Die]
	ds.mu.Lock()
	defer ds.mu.Unlock()
	blk := &ds.blocks[addr.Block]
	if blk.bad || blk.states[addr.Page] != pageErased {
		return
	}
	if d.cfg.EnforceProgramOrder && addr.Page != blk.nextPage {
		return
	}
	cut := len(data) - tornBytes
	if cut < 0 {
		cut = 0
	}
	blk.states[addr.Page] = pageProgrammed
	blk.meta[addr.Page] = meta
	if addr.Page >= blk.nextPage {
		blk.nextPage = addr.Page + 1
	}
	img := d.pageImage(ds, blk)
	copy(img, data[:cut])
	clear(img[cut:])
	blk.data[addr.Page] = img
	ds.programs++
	d.programs.Inc()
}

// PageProgrammed reports whether the page at addr has been programmed since
// the last erase of its block.  It does not consume device time (diagnostic /
// test helper).
func (d *Device) PageProgrammed(addr Addr) (bool, error) {
	if !d.geo.ValidAddr(addr) {
		return false, fmt.Errorf("%w: %v", ErrOutOfRange, addr)
	}
	ds := d.dies[addr.Die]
	ds.mu.Lock()
	defer ds.mu.Unlock()
	return ds.blocks[addr.Block].states[addr.Page] == pageProgrammed, nil
}

// NextProgrammablePage returns the index of the next page that may be
// programmed in the block under the sequential-programming constraint, or
// PagesPerBlock when the block is full.
func (d *Device) NextProgrammablePage(b BlockAddr) (int, error) {
	if !d.geo.ValidBlock(b) {
		return 0, fmt.Errorf("%w: %v", ErrOutOfRange, b)
	}
	ds := d.dies[b.Die]
	ds.mu.Lock()
	defer ds.mu.Unlock()
	return ds.blocks[b.Block].nextPage, nil
}

// EraseCount returns the number of erase cycles the block has undergone.
func (d *Device) EraseCount(b BlockAddr) (int64, error) {
	if !d.geo.ValidBlock(b) {
		return 0, fmt.Errorf("%w: %v", ErrOutOfRange, b)
	}
	ds := d.dies[b.Die]
	ds.mu.Lock()
	defer ds.mu.Unlock()
	return ds.blocks[b.Block].eraseCount, nil
}

// IsBad reports whether the block has been marked bad.
func (d *Device) IsBad(b BlockAddr) (bool, error) {
	if !d.geo.ValidBlock(b) {
		return false, fmt.Errorf("%w: %v", ErrOutOfRange, b)
	}
	ds := d.dies[b.Die]
	ds.mu.Lock()
	defer ds.mu.Unlock()
	return ds.blocks[b.Block].bad, nil
}

// DieStats is a per-die snapshot of operation counts and utilization.
type DieStats struct {
	Die        int
	Channel    int
	Reads      int64
	Programs   int64
	Erases     int64
	Copybacks  int64
	MetaReads  int64
	BusyTime   time.Duration
	TotalWear  int64 // sum of erase counts across the die's blocks
	MaxWear    int64 // highest per-block erase count
	BadBlocks  int
	FreeBlocks int // blocks currently fully erased (nextPage == 0 and not bad)
}

// Stats is a device-wide snapshot.
type Stats struct {
	Reads     int64
	Programs  int64
	Erases    int64
	Copybacks int64
	MetaReads int64
	BadBlocks int64
	PerDie    []DieStats
}

// Stats returns a snapshot of operation counters, wear and utilization.
func (d *Device) Stats() Stats {
	s := Stats{
		Reads:     d.reads.Value(),
		Programs:  d.programs.Value(),
		Erases:    d.erases.Value(),
		Copybacks: d.copyback.Value(),
		MetaReads: d.metaRds.Value(),
		BadBlocks: d.badBlks.Value(),
	}
	s.PerDie = make([]DieStats, d.geo.Dies())
	for i, ds := range d.dies {
		ds.mu.Lock()
		st := DieStats{
			Die:       i,
			Channel:   d.geo.ChannelOfDie(i),
			Reads:     ds.reads,
			Programs:  ds.programs,
			Erases:    ds.erases,
			Copybacks: ds.copybacks,
			MetaReads: ds.metaReads,
			BusyTime:  d.dieRes[i].Busy(),
		}
		for b := range ds.blocks {
			blk := &ds.blocks[b]
			st.TotalWear += blk.eraseCount
			if blk.eraseCount > st.MaxWear {
				st.MaxWear = blk.eraseCount
			}
			if blk.bad {
				st.BadBlocks++
			} else if blk.nextPage == 0 {
				st.FreeBlocks++
			}
		}
		ds.mu.Unlock()
		s.PerDie[i] = st
	}
	return s
}

// ResetCounters zeroes the operation counters and resource utilization
// statistics without touching page contents or wear state.  Benchmarks call
// it after warm-up so the measured interval starts from zero.
func (d *Device) ResetCounters() {
	d.reads.Reset()
	d.programs.Reset()
	d.erases.Reset()
	d.copyback.Reset()
	d.metaRds.Reset()
	for _, ds := range d.dies {
		ds.mu.Lock()
		ds.reads, ds.programs, ds.erases, ds.copybacks, ds.metaReads = 0, 0, 0, 0, 0
		ds.mu.Unlock()
	}
	for _, r := range d.dieRes {
		r.Reset()
	}
	for _, r := range d.chanRes {
		r.Reset()
	}
}
