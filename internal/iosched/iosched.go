// Package iosched implements the asynchronous I/O scheduler that sits
// between the NoFTL space manager (or the FTL baseline) and the native flash
// device.
//
// The device model (internal/flash) exposes synchronous commands whose
// virtual-time cost is charged against per-die and per-channel resources.
// Issuing commands one at a time from a single actor therefore serializes
// everything on the actor's own virtual cursor, even when the commands target
// different dies that could proceed in parallel.  The scheduler restores the
// device's parallelism: a batch of requests is dispatched so that requests to
// different dies all start at the caller's current virtual time and overlap,
// while requests to the same die serialize on the die's resource exactly as
// the hardware would (FCFS per die, matching the device's dieRes contention
// model).
//
// Two forms are offered:
//
//   - Submit(now, reqs): dispatch a batch synchronously and return one
//     Completion per request (same order), plus the batch makespan.  This is
//     the form the space manager and buffer pool use (via ReadPages,
//     WritePages and the GC copyback batches).
//   - Enqueue(req) / Wait(now, ticket): build up a batch asynchronously and
//     collect completions later (e.g. a background agent posting work it
//     will harvest at its next wake-up).  Pending requests are dispatched
//     when Flush or Wait is called.  Every ticket must eventually be waited
//     on: uncollected completions are retained indefinitely.
//
// Requests carry a priority class (host reads > host writes > GC/copyback).
// Within one dispatch the per-die queues are drained in priority order, so a
// host read enqueued alongside background GC traffic acquires the die first.
// Priorities do not reach across dispatches: once a batch is dispatched its
// device time is reserved, exactly as hardware cannot abort an in-flight
// program.
package iosched

import (
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"noftl/internal/flash"
	"noftl/internal/metrics"
	"noftl/internal/obs"
	"noftl/internal/sim"
)

// Priority is the scheduling class of a request.  Lower values are served
// first when requests compete for the same die within one dispatch.
type Priority uint8

const (
	// PrioHostRead is the highest class: a transaction is blocked on it.
	PrioHostRead Priority = iota
	// PrioHostWrite covers foreground writes and write-back groups.
	PrioHostWrite
	// PrioGC covers garbage-collection copyback, relocation and erase work.
	PrioGC
	numPriorities
)

// String returns the metric suffix of the priority class.
func (p Priority) String() string {
	switch p {
	case PrioHostRead:
		return "host_read"
	case PrioHostWrite:
		return "host_write"
	case PrioGC:
		return "gc"
	default:
		return "unknown"
	}
}

// Op identifies the flash command a request performs.
type Op uint8

const (
	// OpReadPage reads a full page (data + metadata).
	OpReadPage Op = iota
	// OpReadMeta reads only the OOB metadata of a page.
	OpReadMeta
	// OpProgram programs a page.
	OpProgram
	// OpErase erases a block.
	OpErase
	// OpCopyback copies a page to an erased page on the same die.
	OpCopyback
)

// Request describes one flash command to schedule.
type Request struct {
	// Op selects the command.
	Op Op
	// Addr is the target page of OpReadPage/OpReadMeta/OpProgram and the
	// source page of OpCopyback.
	Addr flash.Addr
	// Dst is the destination page of OpCopyback.
	Dst flash.Addr
	// Block is the target of OpErase.
	Block flash.BlockAddr
	// Buf optionally receives the data of OpReadPage (allocated when nil).
	Buf []byte
	// Data is the payload of OpProgram.
	Data []byte
	// Meta is the OOB metadata of OpProgram.
	Meta flash.PageMeta
	// Priority is the scheduling class.
	Priority Priority
	// Tag is an opaque caller value (e.g. the LPN) carried into the
	// Completion.
	Tag uint64
}

// die returns the die the request occupies.
func (r Request) die() int {
	if r.Op == OpErase {
		return r.Block.Die
	}
	return r.Addr.Die
}

// Completion is the result of one request.
type Completion struct {
	// Op, Priority and Tag are copied from the request.
	Op       Op
	Priority Priority
	Tag      uint64
	// Data is the page read by OpReadPage (nil otherwise or on error).
	Data []byte
	// Meta is the metadata read by OpReadPage/OpReadMeta, or the metadata
	// inherited by the destination of OpCopyback.
	Meta flash.PageMeta
	// Done is the virtual completion time of the request (equal to the
	// submission time when Err is non-nil and the device refused the
	// command without consuming time).
	Done sim.Time
	// Err is the device error, if any.
	Err error
}

// Device is the narrow flash interface the scheduler drives.  *flash.Device
// satisfies it; tests may substitute fakes.
type Device interface {
	Geometry() flash.Geometry
	ReadPage(now sim.Time, addr flash.Addr, buf []byte) ([]byte, flash.PageMeta, sim.Time, error)
	ReadMeta(now sim.Time, addr flash.Addr) (flash.PageMeta, sim.Time, error)
	ProgramPage(now sim.Time, addr flash.Addr, data []byte, meta flash.PageMeta) (sim.Time, error)
	EraseBlock(now sim.Time, b flash.BlockAddr) (sim.Time, error)
	Copyback(now sim.Time, src, dst flash.Addr) (flash.PageMeta, sim.Time, error)
}

// Ticket identifies an asynchronously enqueued request.
type Ticket uint64

// queued is a pending async request.
type queued struct {
	req    Request
	ticket Ticket
	seq    uint64 // enqueue order, to keep per-die FIFO within a priority
}

// Scheduler is the asynchronous I/O scheduler.  It is safe for concurrent
// use.  Submit dispatches lock-free: the device model's virtual-time
// resources (per-die, per-channel) do all contention accounting with their
// own locks, and the scheduler's own counters are atomics, so concurrent
// submitters from independent workers never serialize on the scheduler —
// only on the dies they actually share.  The mutex protects just the
// asynchronous ticket path (Enqueue/Flush/Wait).
type Scheduler struct {
	mu         sync.Mutex // guards pending/results/ticket state only
	dev        Device
	geo        flash.Geometry
	pending    []queued
	nextTicket Ticket
	nextSeq    uint64
	results    map[Ticket]Completion
	busyUntil  []atomic.Int64 // per-die completion horizon (sim.Time ns), CAS-max

	set        *metrics.Set
	batches    *metrics.Counter
	requests   *metrics.Counter
	reqsByPrio [numPriorities]*metrics.Counter
	latByPrio  [numPriorities]*metrics.Histogram
	batchSpan  *metrics.Histogram
	queueDepth *metrics.Gauge
	maxQueue   *metrics.Gauge
	maxBatch   *metrics.Gauge
	gcSteps    *metrics.Counter
	gcStepSpan *metrics.Histogram
	gcStalls   *metrics.Counter

	// Observability hooks (AttachObs).  tracer is nil when tracing is off —
	// the disabled path is one nil compare.  The labeled children are cached
	// per (priority, die) so the dispatch loop never touches the registry's
	// maps.
	tracer       *obs.Tracer
	promReqs     [numPriorities][]*metrics.Counter // [prio][die]
	promLat      [numPriorities]*metrics.Histogram
	promBatches  *metrics.Counter
	promGCSteps  *metrics.Counter
	promGCStalls *metrics.Counter
}

// New creates a scheduler over the device.
func New(dev Device) *Scheduler {
	s := &Scheduler{
		dev:       dev,
		geo:       dev.Geometry(),
		results:   make(map[Ticket]Completion),
		busyUntil: make([]atomic.Int64, dev.Geometry().Dies()),
		set:       metrics.NewSet(),
	}
	s.batches = s.set.Counter("iosched.batches")
	s.requests = s.set.Counter("iosched.requests")
	for p := Priority(0); p < numPriorities; p++ {
		s.reqsByPrio[p] = s.set.Counter("iosched.requests." + p.String())
		s.latByPrio[p] = s.set.Histogram("iosched.latency." + p.String())
	}
	s.batchSpan = s.set.Histogram("iosched.batch_span")
	s.queueDepth = s.set.Gauge("iosched.queue_depth")
	s.maxQueue = s.set.Gauge("iosched.max_queue_depth")
	s.maxBatch = s.set.Gauge("iosched.max_batch_size")
	s.gcSteps = s.set.Counter("iosched.gc_steps")
	s.gcStepSpan = s.set.Histogram("iosched.gc_step_span")
	s.gcStalls = s.set.Counter("iosched.gc_watermark_stalls")
	return s
}

// Metrics returns the scheduler's metric set (queue depth, batch sizes,
// per-priority request counts and latencies).
func (s *Scheduler) Metrics() *metrics.Set { return s.set }

// AttachObs wires the scheduler to the observability plane: flash-command
// trace events go to tr (nil = tracing off, one pointer compare per command)
// and per-die/per-priority labeled families are registered on reg (nil = no
// labeled export).  Call before serving traffic.
func (s *Scheduler) AttachObs(tr *obs.Tracer, reg *metrics.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tracer = tr
	if reg == nil {
		return
	}
	reqs := reg.Counter("noftl_iosched_requests_total",
		"Flash commands dispatched by the I/O scheduler.", "die", "priority")
	lat := reg.Histogram("noftl_iosched_request_latency_seconds",
		"Virtual-time flash command latency by scheduler priority.", "priority")
	dies := s.geo.Dies()
	for p := Priority(0); p < numPriorities; p++ {
		s.promReqs[p] = make([]*metrics.Counter, dies)
		for d := 0; d < dies; d++ {
			s.promReqs[p][d] = reqs.With(strconv.Itoa(d), p.String())
		}
		s.promLat[p] = lat.With(p.String())
	}
	s.promBatches = reg.Counter("noftl_iosched_batches_total",
		"Request batches dispatched by the I/O scheduler.").With()
	s.promGCSteps = reg.Counter("noftl_iosched_gc_steps_total",
		"Background GC steps observed by the scheduler.").With()
	s.promGCStalls = reg.Counter("noftl_iosched_gc_stalls_total",
		"Foreground GC stalls (allocation blocked at the low watermark).").With()
}

// Submit dispatches a batch of requests starting at the caller's virtual time
// and returns one completion per request, in request order, together with the
// batch makespan (the latest completion time; now when the batch is empty).
//
// Requests to different dies overlap in virtual time; requests to the same
// die are served in priority order (FIFO within a class) on the die's
// single-server queue.
//
// Submit never takes the scheduler mutex: concurrent submitters contend only
// on the per-die/per-channel resources of the device model (and then only
// when they target the same die), which is what lets N workers drive the
// device in parallel.  Ordering guarantees hold within one batch; across
// concurrent batches the dies' FCFS queues arbitrate, exactly as the
// hardware would.
func (s *Scheduler) Submit(now sim.Time, reqs []Request) ([]Completion, sim.Time) {
	if len(reqs) == 0 {
		return nil, now
	}
	return s.dispatch(now, reqs)
}

// dispatch issues the batch against the device.  It takes no scheduler-wide
// lock (see Submit); every structure it touches is an atomic or has its own
// finer-grained lock.
func (s *Scheduler) dispatch(now sim.Time, reqs []Request) ([]Completion, sim.Time) {
	// Dispatch order: priority class first, then per-die FIFO.  The index
	// sort is stable so that same-priority requests to one die keep their
	// submission order (required by the NAND sequential-programming
	// constraint for programs to the same block).
	order := make([]int, len(reqs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool {
		a, b := order[x], order[y]
		if reqs[a].Priority != reqs[b].Priority {
			return reqs[a].Priority < reqs[b].Priority
		}
		// Stability keeps submission order within (priority, die), which the
		// NAND sequential-programming constraint requires for programs to
		// the same block.
		return reqs[a].die() < reqs[b].die()
	})

	completions := make([]Completion, len(reqs))
	end := now
	for _, i := range order {
		completions[i] = s.execute(now, &reqs[i])
		end = sim.MaxTime(end, completions[i].Done)
	}
	s.countBatch(now, end, len(reqs))
	return completions, end
}

// dispatchOne dispatches a batch of one request.  It is dispatch without the
// order, completion slice and sort a single request does not need, so the
// one-page paths of the space manager allocate nothing.
func (s *Scheduler) dispatchOne(now sim.Time, req Request) Completion {
	c := s.execute(now, &req)
	s.countBatch(now, sim.MaxTime(now, c.Done), 1)
	return c
}

// execute performs one request against the device at now and accounts it in
// the die horizon, the per-priority metrics and the trace.
func (s *Scheduler) execute(now sim.Time, req *Request) Completion {
	c := Completion{Op: req.Op, Priority: req.Priority, Tag: req.Tag}
	switch req.Op {
	case OpReadPage:
		c.Data, c.Meta, c.Done, c.Err = s.dev.ReadPage(now, req.Addr, req.Buf)
	case OpReadMeta:
		c.Meta, c.Done, c.Err = s.dev.ReadMeta(now, req.Addr)
	case OpProgram:
		c.Done, c.Err = s.dev.ProgramPage(now, req.Addr, req.Data, req.Meta)
	case OpErase:
		c.Done, c.Err = s.dev.EraseBlock(now, req.Block)
	case OpCopyback:
		c.Meta, c.Done, c.Err = s.dev.Copyback(now, req.Addr, req.Dst)
	default:
		c.Done = now
	}
	d := req.die()
	if d >= 0 && d < len(s.busyUntil) {
		for {
			cur := s.busyUntil[d].Load()
			if int64(c.Done) <= cur || s.busyUntil[d].CompareAndSwap(cur, int64(c.Done)) {
				break
			}
		}
	}
	if c.Err == nil {
		s.latByPrio[req.Priority].Observe(c.Done.Sub(now))
		if s.promLat[req.Priority] != nil {
			s.promLat[req.Priority].Observe(c.Done.Sub(now))
		}
	}
	s.reqsByPrio[req.Priority].Inc()
	if s.promReqs[req.Priority] != nil && d >= 0 && d < len(s.promReqs[req.Priority]) {
		s.promReqs[req.Priority][d].Inc()
	}
	if s.tracer.Enabled(obs.ClassFlash) && c.Err == nil {
		ev := obs.Event{
			Class: obs.ClassFlash,
			Op:    uint8(req.Op),
			Prio:  uint8(req.Priority),
			Die:   int32(d),
			Start: now,
			End:   c.Done,
			A:     int64(req.Tag),
		}
		if req.Op == OpErase {
			ev.Block, ev.Page = int32(req.Block.Block), -1
		} else {
			ev.Block, ev.Page = int32(req.Addr.Block), int32(req.Addr.Page)
		}
		ev.Region = -1
		s.tracer.Record(ev)
	}
	return c
}

// countBatch records one dispatched batch of n requests spanning now..end.
func (s *Scheduler) countBatch(now, end sim.Time, n int) {
	s.batches.Inc()
	if s.promBatches != nil {
		s.promBatches.Inc()
	}
	s.requests.Add(int64(n))
	s.maxBatch.SetMax(int64(n))
	s.batchSpan.Observe(end.Sub(now))
}

// Enqueue adds a request to the pending queue without dispatching it and
// returns a ticket to collect its completion with Wait.  Pending requests are
// dispatched by the next Flush or Wait call; dies not targeted by pending
// requests are unaffected.
func (s *Scheduler) Enqueue(req Request) Ticket {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.nextTicket
	s.nextTicket++
	s.pending = append(s.pending, queued{req: req, ticket: t, seq: s.nextSeq})
	s.nextSeq++
	depth := int64(len(s.pending))
	s.queueDepth.Set(depth)
	s.maxQueue.SetMax(depth)
	return t
}

// QueueDepth returns the number of pending (enqueued, not yet dispatched)
// requests.
func (s *Scheduler) QueueDepth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pending)
}

// Flush dispatches every pending request at the given virtual time and
// returns the batch makespan (now when nothing was pending).  Completions are
// retained until collected by Wait.
func (s *Scheduler) Flush(now sim.Time) sim.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.flushLocked(now)
}

// flushLocked dispatches the pending queue.  Caller holds s.mu.
func (s *Scheduler) flushLocked(now sim.Time) sim.Time {
	if len(s.pending) == 0 {
		return now
	}
	reqs := make([]Request, len(s.pending))
	tickets := make([]Ticket, len(s.pending))
	for i, q := range s.pending {
		reqs[i] = q.req
		tickets[i] = q.ticket
	}
	s.pending = s.pending[:0]
	s.queueDepth.Set(0)
	completions, end := s.dispatch(now, reqs)
	for i, c := range completions {
		s.results[tickets[i]] = c
	}
	return end
}

// Wait returns the completion of the given ticket, dispatching the pending
// queue first if the ticket has not been served yet.  Each ticket may be
// waited on exactly once.  ok is false for an unknown (or already collected)
// ticket.
func (s *Scheduler) Wait(now sim.Time, t Ticket) (Completion, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.results[t]
	if !ok {
		s.flushLocked(now)
		c, ok = s.results[t]
		if !ok {
			return Completion{}, false
		}
	}
	delete(s.results, t)
	return c, true
}

// DieIdleAt returns the virtual time at which the die becomes idle: the
// completion horizon of all work dispatched to it so far.  Background garbage
// collection submits its steps at max(now, DieIdleAt(die)) so that relocation
// work fills the die's idle slots instead of pushing in front of traffic that
// is already accounted on the die.
func (s *Scheduler) DieIdleAt(die int) sim.Time {
	if die < 0 || die >= len(s.busyUntil) {
		return 0
	}
	return sim.Time(s.busyUntil[die].Load())
}

// ObserveGCStep records one bounded background GC step (victim relocation
// and/or erase) of the given virtual-time span in the scheduler's metrics.
func (s *Scheduler) ObserveGCStep(span sim.Duration) {
	s.gcSteps.Inc()
	s.gcStepSpan.Observe(span)
	if s.promGCSteps != nil {
		s.promGCSteps.Inc()
	}
}

// ObserveGCStall records one foreground (blocking) collection: an allocation
// hit the low watermark and had to wait for GC inline.
func (s *Scheduler) ObserveGCStall() {
	s.gcStalls.Inc()
	if s.promGCStalls != nil {
		s.promGCStalls.Inc()
	}
}

// ---- single-request conveniences ----
//
// These keep the space manager's one-page paths on the scheduler (so every
// flash command is accounted in the scheduler's metrics, each as a batch of
// one) without forcing callers to build batches.

// Read performs one page read at the given priority.
func (s *Scheduler) Read(now sim.Time, addr flash.Addr, buf []byte, prio Priority) ([]byte, flash.PageMeta, sim.Time, error) {
	c := s.dispatchOne(now, Request{Op: OpReadPage, Addr: addr, Buf: buf, Priority: prio})
	return c.Data, c.Meta, c.Done, c.Err
}

// Program performs one page program at the given priority.
func (s *Scheduler) Program(now sim.Time, addr flash.Addr, data []byte, meta flash.PageMeta, prio Priority) (sim.Time, error) {
	c := s.dispatchOne(now, Request{Op: OpProgram, Addr: addr, Data: data, Meta: meta, Priority: prio})
	return c.Done, c.Err
}

// Erase performs one block erase at the given priority.
func (s *Scheduler) Erase(now sim.Time, b flash.BlockAddr, prio Priority) (sim.Time, error) {
	c := s.dispatchOne(now, Request{Op: OpErase, Block: b, Priority: prio})
	return c.Done, c.Err
}

// Copyback performs one on-die page copy at GC priority.
func (s *Scheduler) Copyback(now sim.Time, src, dst flash.Addr) (flash.PageMeta, sim.Time, error) {
	c := s.dispatchOne(now, Request{Op: OpCopyback, Addr: src, Dst: dst, Priority: PrioGC})
	return c.Meta, c.Done, c.Err
}
