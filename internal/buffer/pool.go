// Package buffer implements the DBMS buffer pool used by the reproduction:
// a fixed set of page frames over the NoFTL space manager with CLOCK
// eviction, pin/unpin, per-frame latches, dirty-page write-back and
// background flushers.
//
// The frame table is sharded by LPN hash: each shard owns a disjoint set of
// frames, its own hash table and its own CLOCK hand, so concurrent fetchers
// that touch different pages almost never contend on a mutex.  Frame
// contents are protected by per-frame latches exactly as before; the shard
// mutex only covers the mapping table, pin counts and eviction state.
//
// Physical page reads and writes consume virtual time on the flash device;
// the pool threads the caller's virtual-time cursor through every operation
// so that buffer misses and dirty evictions show up in transaction response
// times exactly as they would on real hardware.
package buffer

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"noftl/internal/core"
	"noftl/internal/obs"
	"noftl/internal/sim"
)

// Backend is the page store underneath the pool.  *core.Manager satisfies
// it; tests may plug in simpler implementations.
type Backend interface {
	ReadPage(now sim.Time, lpn core.LPN, buf []byte) ([]byte, sim.Time, error)
	WritePage(now sim.Time, lpn core.LPN, data []byte, hint core.Hint) (sim.Time, error)
}

// BatchBackend is the optional batched interface of a backend.  When the
// backend provides it (as *core.Manager does, through the asynchronous I/O
// scheduler), the pool uses it for sequential read-ahead and for group
// write-back, so multi-page I/O stripes over the device's dies and overlaps
// in virtual time instead of serializing page by page.
type BatchBackend interface {
	Backend
	ReadPages(now sim.Time, lpns []core.LPN, bufs [][]byte) ([]core.PageRead, sim.Time)
	WritePages(now sim.Time, writes []core.PageWrite) (sim.Time, error)
	Mapped(lpn core.LPN) bool
}

// Recorder receives physical I/O notifications per database object; the DB
// layer uses it to maintain the per-object statistics consumed by the Region
// Advisor.  A nil Recorder disables recording.  Implementations must be safe
// for concurrent use.
type Recorder interface {
	RecordPhysRead(objectID uint32, pages int64)
	RecordPhysWrite(objectID uint32, pages int64)
}

// Errors returned by the pool.
var (
	// ErrPoolFull reports that every frame of the pool is pinned and nothing
	// can be evicted.
	ErrPoolFull = errors.New("buffer: all frames pinned")
	// ErrNotCached reports a FlushPage of a page that is not resident.
	ErrNotCached = errors.New("buffer: page not resident")
)

// poolShard is one slice of the pool: a disjoint set of frames with its own
// mapping table and CLOCK hand.  A page lives in exactly one shard (chosen by
// LPN hash), so two operations on different shards never share a mutex.
type poolShard struct {
	mu     sync.Mutex
	frames []*Frame
	table  map[core.LPN]int // lpn -> index into frames
	hand   int
	// borrowing is set while the shard's lock holder, with every frame of
	// the shard pinned, looks for a frame in the other shards.
	borrowing atomic.Bool
}

// Frame is one page-sized slot of the pool.  A frame belongs to one shard,
// which guards every field except data (per-frame latch) and dirty
// (atomic); an unpinned frame may move to a shard whose frames are all
// pinned (see borrowFrameLocked).
type Frame struct {
	mu         sync.RWMutex // content latch
	shard      *poolShard
	lpn        core.LPN
	data       []byte
	hint       core.Hint
	dirty      atomic.Bool // set by MarkDirty without the shard mutex
	valid      bool
	pins       int
	ref        bool
	prefetched bool   // staged by read-ahead, not yet demanded
	handle     Handle // returned by every pin of this frame
}

// Handle is a pinned reference to a frame.  Every pin of a frame returns the
// same Handle, owned by the frame: it carries no per-pin state, so a pin is
// not an allocation.  Callers must Release once per Fetch (or NewPage, or
// FetchMany position) that returned it, must not use it after that, and must
// bracket data access with Lock/Unlock (writers) or RLock/RUnlock (readers).
type Handle struct {
	frame *Frame
}

// Data returns the frame's page buffer.  The caller must hold the frame
// latch while reading or writing it.
func (h *Handle) Data() []byte { return h.frame.data }

// LPN returns the logical page number of the pinned page.
func (h *Handle) LPN() core.LPN { return h.frame.lpn }

// Lock acquires the frame's write latch.
func (h *Handle) Lock() { h.frame.mu.Lock() }

// Unlock releases the frame's write latch.
func (h *Handle) Unlock() { h.frame.mu.Unlock() }

// RLock acquires the frame's read latch.
func (h *Handle) RLock() { h.frame.mu.RLock() }

// RUnlock releases the frame's read latch.
func (h *Handle) RUnlock() { h.frame.mu.RUnlock() }

// MarkDirty flags the page as modified so it will be written back before
// eviction.  Call it while holding the write latch.
func (h *Handle) MarkDirty() {
	h.frame.dirty.Store(true)
}

// Release unpins the page.
func (h *Handle) Release() {
	s := h.frame.shard
	s.mu.Lock()
	if h.frame.pins > 0 {
		h.frame.pins--
	}
	s.mu.Unlock()
}

// Stats is a snapshot of pool counters.
type Stats struct {
	Frames     int
	Shards     int
	Resident   int
	Dirty      int
	Hits       int64
	Misses     int64
	NewPages   int64
	Evictions  int64
	Writebacks int64
	// Prefetches counts pages staged by sequential read-ahead;
	// PrefetchHits counts later demand hits on those pages.
	Prefetches   int64
	PrefetchHits int64
	// GroupFlushes counts batched write-back dispatches (each covering one
	// or more dirty pages).
	GroupFlushes int64
}

// HitRatio returns hits / (hits + misses), or zero when idle.
func (s Stats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Options tune the pool's batched-I/O behaviour and sharding.  The zero
// value disables read-ahead and group write-back and keeps the automatic
// shard count.
type Options struct {
	// ReadAhead is the number of sequentially-next pages staged through the
	// batch backend on a demand miss.  Zero disables read-ahead.
	ReadAhead int
	// GroupWriteBack makes FlushAll/FlushSome write dirty pages as one
	// die-striped batch instead of one page at a time.
	GroupWriteBack bool
	// Shards overrides the automatic frame-table shard count (clamped so
	// every shard keeps at least two frames).  Zero keeps the automatic
	// choice.  Resharding is only honoured while the pool is empty; set it
	// before the pool sees traffic.
	Shards int
}

// Pool is the buffer pool.  All methods are safe for concurrent use once the
// pool is configured; AttachObs and Configure must happen before the pool
// sees traffic.
type Pool struct {
	backend  Backend
	batch    BatchBackend // nil when the backend has no batch interface
	recorder Recorder
	tracer   *obs.Tracer // nil = tracing off (the only cost is nil compares)
	shards   []*poolShard
	nframes  int
	pageSize int
	opts     Options

	hits         atomic.Int64
	misses       atomic.Int64
	newPages     atomic.Int64
	evictions    atomic.Int64
	writebacks   atomic.Int64
	prefetches   atomic.Int64
	prefetchHits atomic.Int64
	groupFlushes atomic.Int64
}

// autoShards picks the shard count for a pool of frameCount frames: one
// shard per 64 frames, capped at 16, rounded down to a power of two.  Small
// pools keep a single shard, so their eviction behaviour is exactly that of
// a classic CLOCK pool.
func autoShards(frameCount int) int {
	n := frameCount / 64
	if n > 16 {
		n = 16
	}
	p := 1
	for p*2 <= n {
		p *= 2
	}
	return p
}

// New creates a pool of frameCount frames of pageSize bytes over the
// backend.
func New(backend Backend, frameCount, pageSize int, recorder Recorder) *Pool {
	if frameCount < 2 {
		frameCount = 2
	}
	p := &Pool{
		backend:  backend,
		recorder: recorder,
		nframes:  frameCount,
		pageSize: pageSize,
	}
	if bb, ok := backend.(BatchBackend); ok {
		p.batch = bb
	}
	p.buildShards(autoShards(frameCount))
	return p
}

// buildShards partitions the pool's frames over n shards (contiguous chunks,
// so shard sizes differ by at most one).  Only called while the pool is
// empty.
func (p *Pool) buildShards(n int) {
	if n < 1 {
		n = 1
	}
	if n > p.nframes/2 {
		n = p.nframes / 2
		if n < 1 {
			n = 1
		}
	}
	p.shards = make([]*poolShard, n)
	base := p.nframes / n
	extra := p.nframes % n
	for i := range p.shards {
		size := base
		if i < extra {
			size++
		}
		s := &poolShard{
			frames: make([]*Frame, size),
			table:  make(map[core.LPN]int, size),
		}
		for j := range s.frames {
			f := &Frame{shard: s, data: make([]byte, p.pageSize)}
			f.handle.frame = f
			s.frames[j] = f
		}
		p.shards[i] = s
	}
}

// shardOf maps an LPN to its shard.  The hash is a 64-bit mix so sequential
// LPNs (extent neighbours) spread over all shards.
func (p *Pool) shardOf(lpn core.LPN) *poolShard {
	if len(p.shards) == 1 {
		return p.shards[0]
	}
	h := uint64(lpn)
	h ^= h >> 33
	h *= 0x9e3779b97f4a7c15
	h ^= h >> 29
	return p.shards[h%uint64(len(p.shards))]
}

// AttachObs wires the pool to the trace recorder.  A nil tracer (the
// default) keeps tracing off; hook sites then cost one nil compare.  Attach
// before the pool sees traffic.
func (p *Pool) AttachObs(tr *obs.Tracer) {
	p.tracer = tr
}

// Configure sets the pool's batched-I/O options.  Options that need the
// batch backend are silently inert when the backend does not provide it.
// Configure before the pool sees traffic.
func (p *Pool) Configure(opts Options) {
	if opts.ReadAhead < 0 {
		opts.ReadAhead = 0
	}
	p.opts = opts
	if opts.Shards > 0 && opts.Shards != len(p.shards) && p.empty() {
		p.buildShards(opts.Shards)
	}
}

// empty reports whether no page is resident (safe to reshard).
func (p *Pool) empty() bool {
	for _, s := range p.shards {
		s.mu.Lock()
		n := len(s.table)
		s.mu.Unlock()
		if n > 0 {
			return false
		}
	}
	return true
}

// PageSize returns the frame size in bytes.
func (p *Pool) PageSize() int { return p.pageSize }

// Stats returns a snapshot of the pool counters.
func (p *Pool) Stats() Stats {
	st := Stats{
		Frames:       p.nframes,
		Shards:       len(p.shards),
		Hits:         p.hits.Load(),
		Misses:       p.misses.Load(),
		NewPages:     p.newPages.Load(),
		Evictions:    p.evictions.Load(),
		Writebacks:   p.writebacks.Load(),
		Prefetches:   p.prefetches.Load(),
		PrefetchHits: p.prefetchHits.Load(),
		GroupFlushes: p.groupFlushes.Load(),
	}
	for _, s := range p.shards {
		s.mu.Lock()
		for _, f := range s.frames {
			if f.valid {
				st.Resident++
				if f.dirty.Load() {
					st.Dirty++
				}
			}
		}
		s.mu.Unlock()
	}
	return st
}

// ResetCounters zeroes the hit/miss/eviction counters (after warm-up).
func (p *Pool) ResetCounters() {
	p.hits.Store(0)
	p.misses.Store(0)
	p.newPages.Store(0)
	p.evictions.Store(0)
	p.writebacks.Store(0)
	p.prefetches.Store(0)
	p.prefetchHits.Store(0)
	p.groupFlushes.Store(0)
}

// Fetch pins the page, reading it from the backend on a miss.  The returned
// time includes any eviction write-back and the read itself.  The handle is
// the frame's own (see Handle): release it exactly once per Fetch.
//
// When read-ahead is configured and the backend supports batching, a miss
// also stages the next sequential pages of the LPN space: they are read in
// the same scheduler batch as the demanded page (striping over dies costs
// almost no extra virtual time) and parked unpinned in the pool, so an
// upcoming sequential access hits in memory instead of missing.
func (p *Pool) Fetch(now sim.Time, lpn core.LPN, hint core.Hint) (*Handle, sim.Time, error) {
	s := p.shardOf(lpn)
	s.mu.Lock()
	if idx, ok := s.table[lpn]; ok {
		f := s.frames[idx]
		f.pins++
		f.ref = true
		// The demander knows the page's true placement hint; refresh it so a
		// frame staged by read-ahead across an object boundary is written
		// back (and charged) under the right object, not the prefetcher's.
		f.hint = hint
		p.hits.Add(1)
		if f.prefetched {
			f.prefetched = false
			p.prefetchHits.Add(1)
		}
		s.mu.Unlock()
		return &f.handle, now, nil
	}
	p.misses.Add(1)
	if p.tracer.Enabled(obs.ClassBufMiss) {
		p.tracer.Record(obs.Event{
			Class: obs.ClassBufMiss, Die: -1, Block: -1, Page: -1,
			Region: int32(hint.Region), Start: now, End: now, A: int64(lpn),
		})
	}
	idx, now, err := p.allocFrameLocked(s, now)
	if err != nil {
		s.mu.Unlock()
		return nil, now, err
	}
	f := s.frames[idx]
	f.lpn = lpn
	f.hint = hint
	f.valid = true
	f.dirty.Store(false)
	f.prefetched = false
	f.pins = 1
	f.ref = true
	// Hold the frame's content latch across the read so that a concurrent
	// Fetch of the same page (which hits in the table the moment we publish
	// it) blocks on the latch until the data has actually arrived.  The
	// latch acquisition cannot block: the frame had zero pins, so no latch
	// holder (or waiter) can exist.
	f.mu.Lock()
	s.table[lpn] = idx
	s.mu.Unlock()

	// Stage sequential read-ahead frames (each in its own shard, one shard
	// lock at a time — the demand shard's lock is already released).
	var pfFrames []*Frame
	if p.opts.ReadAhead > 0 && p.batch != nil {
		pfFrames, now = p.stagePrefetch(now, lpn, hint)
	}

	if len(pfFrames) == 0 {
		_, done, err := p.backend.ReadPage(now, lpn, f.data)
		f.mu.Unlock()
		if err != nil {
			s.mu.Lock()
			delete(s.table, lpn)
			f.valid = false
			f.pins = 0
			s.mu.Unlock()
			return nil, done, fmt.Errorf("buffer: fetch lpn %d: %w", lpn, err)
		}
		if p.recorder != nil {
			p.recorder.RecordPhysRead(hint.ObjectID, 1)
		}
		return &f.handle, done, nil
	}

	// Batched path: demand page first, prefetch pages after it.
	lpns := make([]core.LPN, 0, 1+len(pfFrames))
	bufs := make([][]byte, 0, 1+len(pfFrames))
	lpns = append(lpns, lpn)
	bufs = append(bufs, f.data)
	for _, pf := range pfFrames {
		lpns = append(lpns, pf.lpn)
		bufs = append(bufs, pf.data)
	}
	reads, _ := p.batch.ReadPages(now, lpns, bufs)

	goodPages := int64(0)
	for i, pf := range pfFrames {
		ps := pf.shard
		ps.mu.Lock()
		pf.mu.Unlock()
		// Drop the staging pin only: a concurrent Fetch may have hit the
		// published frame and pinned it while the batch was in flight.
		if pf.pins > 0 {
			pf.pins--
		}
		if reads[i+1].Err != nil {
			// The page vanished between staging and the read (e.g. a
			// concurrent trim): unpublish the frame unless someone else
			// still holds it pinned.
			if pf.pins == 0 {
				delete(ps.table, pf.lpn)
				pf.valid = false
				pf.prefetched = false
			}
		} else {
			goodPages++
		}
		ps.mu.Unlock()
	}
	demand := reads[0]
	f.mu.Unlock()
	if demand.Err != nil {
		s.mu.Lock()
		delete(s.table, lpn)
		f.valid = false
		f.pins = 0
		s.mu.Unlock()
		return nil, demand.Done, fmt.Errorf("buffer: fetch lpn %d: %w", lpn, demand.Err)
	}
	if p.recorder != nil {
		// Read-ahead pages are charged to the demanding object: sequential
		// LPNs belong to the same extent in practice.
		p.recorder.RecordPhysRead(hint.ObjectID, 1+goodPages)
	}
	// The caller pays for its own page only; the prefetched pages overlap
	// on other dies and their (near-identical) completion is not the
	// caller's concern.
	return &f.handle, demand.Done, nil
}

// FetchMany pins a set of pages, reading every non-resident page from the
// backend in one die-striped scheduler batch.  The returned handles align
// with lpns (duplicates receive independent pins on the same frame); the
// returned time is the batch makespan plus any eviction write-back the frame
// allocations caused.  On error no handles are retained.
//
// Without a batch backend the pages are fetched one at a time.
func (p *Pool) FetchMany(now sim.Time, lpns []core.LPN, hint core.Hint) ([]*Handle, sim.Time, error) {
	handles := make([]*Handle, len(lpns))
	releaseAll := func() {
		for _, h := range handles {
			if h != nil {
				h.Release()
			}
		}
	}
	if p.batch == nil {
		for i, lpn := range lpns {
			h, done, err := p.Fetch(now, lpn, hint)
			if err != nil {
				releaseAll()
				return nil, done, err
			}
			handles[i] = h
			now = done
		}
		return handles, now, nil
	}

	// Group the requested positions by shard (first-appearance order keeps
	// eviction write-back chaining deterministic), pin residents and
	// allocate+publish frames for misses one shard lock at a time, then read
	// all misses as a single batch.
	shardPos := make(map[*poolShard][]int)
	order := make([]*poolShard, 0, len(p.shards))
	for i, lpn := range lpns {
		s := p.shardOf(lpn)
		if _, seen := shardPos[s]; !seen {
			order = append(order, s)
		}
		shardPos[s] = append(shardPos[s], i)
	}

	type missFrame struct {
		pos   int
		frame *Frame
	}
	var misses []missFrame
	var allocErr error
	for _, s := range order {
		s.mu.Lock()
		for _, i := range shardPos[s] {
			lpn := lpns[i]
			if idx, ok := s.table[lpn]; ok {
				f := s.frames[idx]
				f.pins++
				f.ref = true
				f.hint = hint
				p.hits.Add(1)
				if f.prefetched {
					f.prefetched = false
					p.prefetchHits.Add(1)
				}
				handles[i] = &f.handle
				continue
			}
			p.misses.Add(1)
			if p.tracer.Enabled(obs.ClassBufMiss) {
				p.tracer.Record(obs.Event{
					Class: obs.ClassBufMiss, Die: -1, Block: -1, Page: -1,
					Region: int32(hint.Region), Start: now, End: now, A: int64(lpn),
				})
			}
			idx, t, err := p.allocFrameLocked(s, now)
			if err != nil {
				allocErr = err
				now = t
				break
			}
			now = t
			f := s.frames[idx]
			f.lpn = lpn
			f.hint = hint
			f.valid = true
			f.dirty.Store(false)
			f.prefetched = false
			f.pins = 1
			f.ref = true
			// Hold the content latch until the batch read lands, so a
			// concurrent Fetch that hits the published frame blocks until
			// the data is there (cannot block here: the frame had no pins).
			f.mu.Lock()
			s.table[lpn] = idx
			handles[i] = &f.handle
			misses = append(misses, missFrame{pos: i, frame: f})
		}
		s.mu.Unlock()
		if allocErr != nil {
			break
		}
	}
	if allocErr != nil {
		// Unwind every staged miss: their frames are published with the
		// content latch held but no data yet.  Unlatch, drop the staging
		// pin, and unpublish unless a concurrent Fetch pinned the frame in
		// the meantime.
		for _, m := range misses {
			f := m.frame
			ms := f.shard
			ms.mu.Lock()
			f.mu.Unlock()
			if f.pins > 0 {
				f.pins--
			}
			if f.pins == 0 {
				delete(ms.table, f.lpn)
				f.valid = false
			}
			ms.mu.Unlock()
			handles[m.pos] = nil
		}
		releaseAll()
		return nil, now, allocErr
	}

	if len(misses) == 0 {
		return handles, now, nil
	}
	missLPNs := make([]core.LPN, len(misses))
	bufs := make([][]byte, len(misses))
	for j, m := range misses {
		missLPNs[j] = m.frame.lpn
		bufs[j] = m.frame.data
	}
	reads, end := p.batch.ReadPages(now, missLPNs, bufs)
	var firstErr error
	for j, m := range misses {
		m.frame.mu.Unlock()
		if reads[j].Err != nil && firstErr == nil {
			firstErr = fmt.Errorf("buffer: fetch lpn %d: %w", missLPNs[j], reads[j].Err)
		}
	}
	if firstErr != nil {
		releaseAll()
		for _, m := range misses {
			f := m.frame
			ms := f.shard
			ms.mu.Lock()
			if f.pins == 0 {
				delete(ms.table, f.lpn)
				f.valid = false
			}
			ms.mu.Unlock()
		}
		return nil, end, firstErr
	}
	if p.recorder != nil {
		p.recorder.RecordPhysRead(hint.ObjectID, int64(len(misses)))
	}
	return handles, end, nil
}

// WriteThrough writes page images to the backend as one die-striped batch
// without staging them in the pool (bulk-load path: the pages are complete
// and cold, so buffering them would only push hotter pages out).  Resident
// copies of the written pages, if any, are dropped.  Without a batch backend
// the pages are written one at a time.
func (p *Pool) WriteThrough(now sim.Time, writes []core.PageWrite) (sim.Time, error) {
	if len(writes) == 0 {
		return now, nil
	}
	var done sim.Time
	var err error
	if p.batch != nil {
		done, err = p.batch.WritePages(now, writes)
	} else {
		done = now
		for _, w := range writes {
			done, err = p.backend.WritePage(done, w.LPN, w.Data, w.Hint)
			if err != nil {
				break
			}
		}
	}
	if err != nil {
		return now, err
	}
	for _, w := range writes {
		s := p.shardOf(w.LPN)
		s.mu.Lock()
		if idx, ok := s.table[w.LPN]; ok {
			f := s.frames[idx]
			if f.pins == 0 {
				delete(s.table, w.LPN)
				f.valid = false
				f.dirty.Store(false)
				f.prefetched = false
			}
		}
		s.mu.Unlock()
		p.writebacks.Add(1)
		if p.recorder != nil {
			p.recorder.RecordPhysWrite(w.Hint.ObjectID, 1)
		}
	}
	if p.batch != nil {
		p.groupFlushes.Add(1)
	}
	if p.tracer.Enabled(obs.ClassBufWriteBack) {
		p.tracer.Record(obs.Event{
			Class: obs.ClassBufWriteBack, Op: obs.BufWriteBackGroup,
			Die: -1, Block: -1, Page: -1, Region: -1,
			Start: now, End: done, A: int64(len(writes)),
		})
	}
	return done, nil
}

// stagePrefetch allocates and publishes frames for the mapped, non-resident
// pages sequentially following lpn, returning them with their content
// latches held and one staging pin each.  Each page is staged under its own
// shard's lock; the returned time includes any eviction write-back the
// allocations caused.
func (p *Pool) stagePrefetch(now sim.Time, lpn core.LPN, hint core.Hint) ([]*Frame, sim.Time) {
	var staged []*Frame
	for i := 1; i <= p.opts.ReadAhead; i++ {
		next := lpn + core.LPN(i)
		if !p.batch.Mapped(next) {
			continue
		}
		s := p.shardOf(next)
		s.mu.Lock()
		if _, resident := s.table[next]; resident {
			s.mu.Unlock()
			continue
		}
		idx, t, err := p.allocFrameLocked(s, now)
		if err != nil {
			s.mu.Unlock()
			break // every frame pinned: the pool is too hot to prefetch into
		}
		now = t
		pf := s.frames[idx]
		pf.lpn = next
		pf.hint = hint
		pf.valid = true
		pf.dirty.Store(false)
		pf.prefetched = true
		// Hold a pin while the read is in flight so a CLOCK sweep (even one
		// triggered by the next staging allocation) cannot evict the frame;
		// the pin is dropped once the batch completes.
		pf.pins = 1
		pf.ref = false // evict-first until a demand access promotes it
		pf.mu.Lock()
		s.table[next] = idx
		s.mu.Unlock()
		staged = append(staged, pf)
		p.prefetches.Add(1)
	}
	return staged, now
}

// NewPage pins a frame for a brand-new page without reading the backend.
// The frame starts zeroed and dirty.
func (p *Pool) NewPage(now sim.Time, lpn core.LPN, hint core.Hint) (*Handle, sim.Time, error) {
	s := p.shardOf(lpn)
	s.mu.Lock()
	if idx, ok := s.table[lpn]; ok {
		// The page is already resident (e.g. re-created after a trim); reuse
		// the frame and reset its contents.
		f := s.frames[idx]
		f.pins++
		f.ref = true
		f.prefetched = false
		f.dirty.Store(true)
		for i := range f.data {
			f.data[i] = 0
		}
		p.newPages.Add(1)
		s.mu.Unlock()
		return &f.handle, now, nil
	}
	p.newPages.Add(1)
	idx, now, err := p.allocFrameLocked(s, now)
	if err != nil {
		s.mu.Unlock()
		return nil, now, err
	}
	f := s.frames[idx]
	f.lpn = lpn
	f.hint = hint
	f.valid = true
	f.dirty.Store(true)
	f.prefetched = false
	f.pins = 1
	f.ref = true
	for i := range f.data {
		f.data[i] = 0
	}
	s.table[lpn] = idx
	s.mu.Unlock()
	return &f.handle, now, nil
}

// allocFrameLocked finds a free frame for shard s: a victim of the shard's
// own CLOCK, or, when every frame of s is pinned, one borrowed from another
// shard.  ErrPoolFull therefore means that no shard has an evictable frame.
// Caller holds s.mu.
func (p *Pool) allocFrameLocked(s *poolShard, now sim.Time) (int, sim.Time, error) {
	idx, now, err := p.evictLocked(s, now)
	if err != ErrPoolFull || len(p.shards) == 1 {
		return idx, now, err
	}
	return p.borrowFrameLocked(s, now)
}

// borrowFrameLocked evicts a frame of another shard and moves it into s.
// Caller holds s.mu, and no other goroutine waits for one shard lock while
// holding another, except here; so the other shards are only try-locked.  A
// shard whose lock is held by a borrower has every frame pinned and is
// skipped; any other held shard is retried, since its holder will release
// it.  Each shard keeps at least one frame.
func (p *Pool) borrowFrameLocked(s *poolShard, now sim.Time) (int, sim.Time, error) {
	s.borrowing.Store(true)
	defer s.borrowing.Store(false)
	for {
		retry := false
		for _, o := range p.shards {
			if o == s {
				continue
			}
			if !o.mu.TryLock() {
				retry = retry || !o.borrowing.Load()
				continue
			}
			if len(o.frames) < 2 {
				o.mu.Unlock()
				continue
			}
			idx, t, err := p.evictLocked(o, now)
			if err == ErrPoolFull {
				o.mu.Unlock()
				continue
			}
			if err != nil {
				o.mu.Unlock()
				return 0, t, err
			}
			f := o.frames[idx]
			last := len(o.frames) - 1
			if idx != last {
				moved := o.frames[last]
				o.frames[idx] = moved
				if moved.valid {
					o.table[moved.lpn] = idx
				}
			}
			o.frames[last] = nil
			o.frames = o.frames[:last]
			if o.hand >= last {
				o.hand = 0
			}
			f.shard = s
			o.mu.Unlock()
			s.frames = append(s.frames, f)
			return len(s.frames) - 1, t, nil
		}
		if !retry {
			return 0, now, ErrPoolFull
		}
		runtime.Gosched()
	}
}

// evictLocked finds a victim frame in shard s using the CLOCK policy,
// writing it back if dirty.  Caller holds s.mu; the mutex stays held
// throughout (the backend write is bookkeeping plus virtual-time math, not
// real I/O).  A victim has zero pins, so no latch holder can exist and its
// data may be read directly.
func (p *Pool) evictLocked(s *poolShard, now sim.Time) (int, sim.Time, error) {
	// First pass preference: an invalid (never used) frame.
	for i, f := range s.frames {
		if !f.valid && f.pins == 0 {
			return i, now, nil
		}
	}
	// CLOCK sweep, at most two full rounds.
	for sweep := 0; sweep < 2*len(s.frames); sweep++ {
		idx := s.hand
		s.hand = (s.hand + 1) % len(s.frames)
		f := s.frames[idx]
		if f.pins > 0 {
			continue
		}
		if f.ref {
			f.ref = false
			continue
		}
		// Victim found.
		dirty := f.dirty.Load()
		if dirty {
			start := now
			done, err := p.backend.WritePage(now, f.lpn, f.data, f.hint)
			if err != nil {
				return 0, now, fmt.Errorf("buffer: writeback lpn %d: %w", f.lpn, err)
			}
			now = done
			p.writebacks.Add(1)
			if p.recorder != nil {
				p.recorder.RecordPhysWrite(f.hint.ObjectID, 1)
			}
			if p.tracer.Enabled(obs.ClassBufWriteBack) {
				p.tracer.Record(obs.Event{
					Class: obs.ClassBufWriteBack, Op: obs.BufWriteBackSingle,
					Die: -1, Block: -1, Page: -1, Region: int32(f.hint.Region),
					Start: start, End: done, A: int64(f.lpn),
				})
			}
		}
		if p.tracer.Enabled(obs.ClassBufEvict) {
			var b int64
			if dirty {
				b = 1
			}
			p.tracer.Record(obs.Event{
				Class: obs.ClassBufEvict, Die: -1, Block: -1, Page: -1,
				Region: int32(f.hint.Region), Start: now, End: now,
				A: int64(f.lpn), B: b,
			})
		}
		delete(s.table, f.lpn)
		f.valid = false
		f.dirty.Store(false)
		f.prefetched = false
		p.evictions.Add(1)
		return idx, now, nil
	}
	return 0, now, ErrPoolFull
}

// FlushPage writes the page back to the backend if it is resident, dirty and
// unpinned.  A pinned page is skipped (it is being modified by a concurrent
// transaction and will be written back on eviction or at the next
// checkpoint), exactly as FlushAll does.
func (p *Pool) FlushPage(now sim.Time, lpn core.LPN) (sim.Time, error) {
	s := p.shardOf(lpn)
	s.mu.Lock()
	defer s.mu.Unlock()
	idx, ok := s.table[lpn]
	if !ok {
		return now, fmt.Errorf("%w: lpn %d", ErrNotCached, lpn)
	}
	return p.flushFrameLocked(s, now, idx)
}

// flushFrameLocked writes one dirty unpinned frame back.  Caller holds s.mu;
// zero pins guarantee no latch holder, so the data may be read directly.
func (p *Pool) flushFrameLocked(s *poolShard, now sim.Time, idx int) (sim.Time, error) {
	f := s.frames[idx]
	if !f.valid || !f.dirty.Load() || f.pins > 0 {
		return now, nil
	}
	done, err := p.backend.WritePage(now, f.lpn, f.data, f.hint)
	if err != nil {
		return now, err
	}
	f.dirty.Store(false)
	p.writebacks.Add(1)
	if p.recorder != nil {
		p.recorder.RecordPhysWrite(f.hint.ObjectID, 1)
	}
	if p.tracer.Enabled(obs.ClassBufWriteBack) {
		p.tracer.Record(obs.Event{
			Class: obs.ClassBufWriteBack, Op: obs.BufWriteBackSingle,
			Die: -1, Block: -1, Page: -1, Region: int32(f.hint.Region),
			Start: now, End: done, A: int64(f.lpn),
		})
	}
	return done, nil
}

// FlushAll writes every dirty, unpinned resident page back to the backend
// (checkpoint).  Pinned pages are skipped — they are being modified by a
// concurrent transaction and will be written back on eviction or at the next
// checkpoint.  With group write-back enabled the dirty pages go out as one
// die-striped scheduler batch, so the checkpoint costs roughly one write per
// die instead of one write per page in virtual time.
func (p *Pool) FlushAll(now sim.Time) (sim.Time, error) {
	if p.opts.GroupWriteBack && p.batch != nil {
		_, done, err := p.flushGroup(now, p.nframes)
		return done, err
	}
	for _, s := range p.shards {
		s.mu.Lock()
		for idx := range s.frames {
			done, err := p.flushFrameLocked(s, now, idx)
			if err != nil {
				s.mu.Unlock()
				return now, err
			}
			now = done
		}
		s.mu.Unlock()
	}
	return now, nil
}

// FlushSome writes back up to n dirty unpinned pages, oldest-hand first.  It
// is the work unit of the background flusher; returning the count lets the
// flusher adapt its pace.
func (p *Pool) FlushSome(now sim.Time, n int) (int, sim.Time, error) {
	if p.opts.GroupWriteBack && p.batch != nil {
		return p.flushGroup(now, n)
	}
	flushed := 0
	for _, s := range p.shards {
		s.mu.Lock()
		for idx, f := range s.frames {
			if flushed >= n {
				break
			}
			if !f.valid || !f.dirty.Load() || f.pins > 0 {
				continue
			}
			done, err := p.flushFrameLocked(s, now, idx)
			if err != nil {
				s.mu.Unlock()
				return flushed, now, err
			}
			now = done
			flushed++
		}
		s.mu.Unlock()
		if flushed >= n {
			break
		}
	}
	return flushed, now, nil
}

// flushGroup writes up to max dirty unpinned pages back as a single batch
// through the batch backend.  Candidates are collected shard by shard; each
// is given a flush pin and a read latch so that neither eviction nor a
// concurrent modification can touch its data while the batch is in flight
// (a frame with zero pins cannot have a latch holder, so the read latch is
// acquired without blocking).  The backend allocates the batch's slots
// round-robin over the target regions' dies, so the programs stripe and
// overlap in virtual time.
func (p *Pool) flushGroup(now sim.Time, max int) (int, sim.Time, error) {
	frames := make([]*Frame, 0, max)
	writes := make([]core.PageWrite, 0, max)
	for _, s := range p.shards {
		if len(frames) >= max {
			break
		}
		s.mu.Lock()
		for _, f := range s.frames {
			if len(frames) >= max {
				break
			}
			if !f.valid || !f.dirty.Load() || f.pins > 0 {
				continue
			}
			f.pins++
			f.mu.RLock()
			// Clear dirty before the write: MarkDirty cannot run while we
			// hold the read latch, and any modification after we release it
			// re-marks the page, so no update is lost.
			f.dirty.Store(false)
			frames = append(frames, f)
			writes = append(writes, core.PageWrite{LPN: f.lpn, Data: f.data, Hint: f.hint})
		}
		s.mu.Unlock()
	}
	if len(writes) == 0 {
		return 0, now, nil
	}
	done, err := p.batch.WritePages(now, writes)
	for i, f := range frames {
		if err != nil {
			// Leave the page dirty: pages the batch did manage to program
			// are remapped in the backend and will simply be written again
			// (wasted work, never lost data).
			f.dirty.Store(true)
		}
		f.mu.RUnlock()
		s := f.shard
		s.mu.Lock()
		if f.pins > 0 {
			f.pins--
		}
		s.mu.Unlock()
		if err == nil {
			p.writebacks.Add(1)
			if p.recorder != nil {
				p.recorder.RecordPhysWrite(writes[i].Hint.ObjectID, 1)
			}
		}
	}
	if err != nil {
		return 0, now, err
	}
	p.groupFlushes.Add(1)
	if p.tracer.Enabled(obs.ClassBufWriteBack) {
		p.tracer.Record(obs.Event{
			Class: obs.ClassBufWriteBack, Op: obs.BufWriteBackGroup,
			Die: -1, Block: -1, Page: -1, Region: -1,
			Start: now, End: done, A: int64(len(frames)),
		})
	}
	return len(frames), done, nil
}

// Drop removes a page from the pool without writing it back (used when an
// object is dropped and its pages trimmed).
func (p *Pool) Drop(lpn core.LPN) {
	s := p.shardOf(lpn)
	s.mu.Lock()
	defer s.mu.Unlock()
	if idx, ok := s.table[lpn]; ok {
		f := s.frames[idx]
		if f.pins == 0 {
			delete(s.table, lpn)
			f.valid = false
			f.dirty.Store(false)
			f.prefetched = false
		}
	}
}
