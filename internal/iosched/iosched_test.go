package iosched

import (
	"fmt"
	"sync"
	"testing"

	"noftl/internal/flash"
	"noftl/internal/sim"
)

// testDevice returns a small device with a deterministic geometry: 4
// channels x 2 dies, default SLC timing (read 40µs, program 350µs, erase
// 1.5ms, transfer 10µs).
func testDevice(t testing.TB) *flash.Device {
	t.Helper()
	dev, err := flash.NewDevice(flash.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

// program fills pages [0,n) of block 0 on the given die and resets the
// device's virtual-time resources so tests start from an idle device at t=0.
func program(t testing.TB, dev *flash.Device, die, n int) {
	t.Helper()
	payload := make([]byte, dev.Geometry().PageSize)
	now := sim.Time(0)
	for p := 0; p < n; p++ {
		done, err := dev.ProgramPage(now, flash.Addr{Die: die, Block: 0, Page: p}, payload, flash.PageMeta{LPN: uint64(p)})
		if err != nil {
			t.Fatal(err)
		}
		now = done
	}
}

func resetTime(dev *flash.Device) { dev.ResetCounters() }

func TestSameDieSerialization(t *testing.T) {
	dev := testDevice(t)
	program(t, dev, 0, 2)
	resetTime(dev)
	s := New(dev)

	cs, end := s.Submit(0, []Request{
		{Op: OpReadPage, Addr: flash.Addr{Die: 0, Block: 0, Page: 0}, Priority: PrioHostRead},
		{Op: OpReadPage, Addr: flash.Addr{Die: 0, Block: 0, Page: 1}, Priority: PrioHostRead},
	})
	for i, c := range cs {
		if c.Err != nil {
			t.Fatalf("read %d: %v", i, c.Err)
		}
	}
	tm := dev.Timing()
	first := sim.Time(0).Add(tm.ReadPage + tm.Transfer)
	if cs[0].Done != first {
		t.Errorf("first read done at %v, want %v", cs[0].Done, first)
	}
	// The second read's sense must wait for the die: it starts when the
	// first sense finishes, so its completion is one full ReadPage later.
	second := first.Add(tm.ReadPage)
	if cs[1].Done != second {
		t.Errorf("second read done at %v, want %v (die serialized)", cs[1].Done, second)
	}
	if end != second {
		t.Errorf("batch makespan %v, want %v", end, second)
	}
}

func TestCrossDieOverlap(t *testing.T) {
	dev := testDevice(t)
	geo := dev.Geometry()
	// One page per die on four dies attached to four distinct channels.
	dies := []int{0, 1, 2, 3}
	for _, d := range dies {
		if geo.ChannelOfDie(d) == geo.ChannelOfDie((d+1)%4) {
			t.Fatalf("test expects dies 0..3 on distinct channels")
		}
	}
	for _, d := range dies {
		program(t, dev, d, 1)
	}
	resetTime(dev)
	s := New(dev)

	var reqs []Request
	for _, d := range dies {
		reqs = append(reqs, Request{Op: OpReadPage, Addr: flash.Addr{Die: d, Block: 0, Page: 0}, Priority: PrioHostRead})
	}
	cs, end := s.Submit(0, reqs)
	tm := dev.Timing()
	single := sim.Time(0).Add(tm.ReadPage + tm.Transfer)
	for i, c := range cs {
		if c.Err != nil {
			t.Fatalf("read %d: %v", i, c.Err)
		}
		if c.Done != single {
			t.Errorf("read on die %d done at %v, want %v (full overlap)", dies[i], c.Done, single)
		}
	}
	if end != single {
		t.Errorf("batch makespan %v, want %v", end, single)
	}
	// The same four reads issued serially (each waiting for the previous)
	// cost four times as much: the batch must beat that.
	serial := sim.Time(0)
	for range dies {
		serial = serial.Add(tm.ReadPage + tm.Transfer)
	}
	if end >= serial {
		t.Errorf("batched makespan %v not better than serial %v", end, serial)
	}
}

func TestPriorityOrdering(t *testing.T) {
	dev := testDevice(t)
	program(t, dev, 0, 2)
	resetTime(dev)
	s := New(dev)

	// A GC copyback is submitted ahead of a host read in the same batch.
	// The host read must acquire the die first.
	cs, _ := s.Submit(0, []Request{
		{Op: OpCopyback, Addr: flash.Addr{Die: 0, Block: 0, Page: 0}, Dst: flash.Addr{Die: 0, Block: 1, Page: 0}, Priority: PrioGC},
		{Op: OpReadPage, Addr: flash.Addr{Die: 0, Block: 0, Page: 1}, Priority: PrioHostRead},
	})
	if cs[0].Err != nil || cs[1].Err != nil {
		t.Fatalf("unexpected errors: %v / %v", cs[0].Err, cs[1].Err)
	}
	tm := dev.Timing()
	wantRead := sim.Time(0).Add(tm.ReadPage + tm.Transfer)
	if cs[1].Done != wantRead {
		t.Errorf("host read done at %v, want %v (must not queue behind GC)", cs[1].Done, wantRead)
	}
	wantCopy := sim.Time(0).Add(tm.ReadPage).Add(tm.ReadPage + tm.ProgramPage)
	if cs[0].Done != wantCopy {
		t.Errorf("copyback done at %v, want %v (after the host read's sense)", cs[0].Done, wantCopy)
	}
}

func TestProgramOrderPreservedWithinBatch(t *testing.T) {
	dev := testDevice(t)
	s := New(dev)
	payload := make([]byte, dev.Geometry().PageSize)
	var reqs []Request
	for p := 0; p < 4; p++ {
		reqs = append(reqs, Request{
			Op:   OpProgram,
			Addr: flash.Addr{Die: 0, Block: 0, Page: p},
			Data: payload, Meta: flash.PageMeta{LPN: uint64(p)},
			Priority: PrioHostWrite,
		})
	}
	cs, _ := s.Submit(0, reqs)
	for i, c := range cs {
		if c.Err != nil {
			t.Fatalf("program page %d: %v (sequential-programming order must be kept)", i, c.Err)
		}
	}
	for i := 1; i < len(cs); i++ {
		if cs[i].Done <= cs[i-1].Done {
			t.Errorf("program %d done %v not after program %d done %v", i, cs[i].Done, i-1, cs[i-1].Done)
		}
	}
}

func TestEnqueueWait(t *testing.T) {
	dev := testDevice(t)
	program(t, dev, 0, 1)
	program(t, dev, 1, 1)
	resetTime(dev)
	s := New(dev)

	t1 := s.Enqueue(Request{Op: OpReadPage, Addr: flash.Addr{Die: 0, Block: 0, Page: 0}, Priority: PrioHostRead, Tag: 100})
	t2 := s.Enqueue(Request{Op: OpReadPage, Addr: flash.Addr{Die: 1, Block: 0, Page: 0}, Priority: PrioHostRead, Tag: 200})
	if got := s.QueueDepth(); got != 2 {
		t.Fatalf("queue depth %d, want 2", got)
	}

	c1, ok := s.Wait(0, t1)
	if !ok || c1.Err != nil {
		t.Fatalf("wait t1: ok=%v err=%v", ok, c1.Err)
	}
	if c1.Tag != 100 {
		t.Errorf("t1 tag %d, want 100", c1.Tag)
	}
	if got := s.QueueDepth(); got != 0 {
		t.Fatalf("queue depth %d after flush, want 0", got)
	}
	// t2 was dispatched by the same flush; both reads overlapped.
	c2, ok := s.Wait(0, t2)
	if !ok || c2.Err != nil {
		t.Fatalf("wait t2: ok=%v err=%v", ok, c2.Err)
	}
	if c2.Done != c1.Done {
		t.Errorf("cross-die async reads done at %v and %v, want equal (overlap)", c1.Done, c2.Done)
	}
	// A ticket can be collected only once.
	if _, ok := s.Wait(0, t2); ok {
		t.Error("second Wait on the same ticket succeeded")
	}
}

func TestSchedulerMetrics(t *testing.T) {
	dev := testDevice(t)
	program(t, dev, 0, 1)
	resetTime(dev)
	s := New(dev)
	s.Submit(0, []Request{{Op: OpReadPage, Addr: flash.Addr{Die: 0, Block: 0, Page: 0}, Priority: PrioHostRead}})
	vals := s.Metrics().CounterValues()
	if vals["iosched.batches"] != 1 {
		t.Errorf("batches = %d, want 1", vals["iosched.batches"])
	}
	if vals["iosched.requests"] != 1 {
		t.Errorf("requests = %d, want 1", vals["iosched.requests"])
	}
	if vals["iosched.requests.host_read"] != 1 {
		t.Errorf("host_read requests = %d, want 1", vals["iosched.requests.host_read"])
	}
	if got := s.Metrics().Histogram("iosched.latency.host_read").Count(); got != 1 {
		t.Errorf("host_read latency observations = %d, want 1", got)
	}
}

// BenchmarkBatchedVsSerialReads demonstrates the scheduler's virtual-time
// win: the same N reads, striped over every die, complete in far less
// simulated time when submitted as one batch than when issued serially.  The
// simulated times are reported as metrics (ns of virtual time per read).
func BenchmarkBatchedVsSerialReads(b *testing.B) {
	dev := testDevice(b)
	geo := dev.Geometry()
	nDies := geo.Dies()
	perDie := 8
	for d := 0; d < nDies; d++ {
		program(b, dev, d, perDie)
	}
	resetTime(dev)
	s := New(dev)

	var reqs []Request
	for p := 0; p < perDie; p++ {
		for d := 0; d < nDies; d++ {
			reqs = append(reqs, Request{Op: OpReadPage, Addr: flash.Addr{Die: d, Block: 0, Page: p}, Priority: PrioHostRead})
		}
	}

	var batched, serial sim.Time
	for i := 0; i < b.N; i++ {
		resetTime(dev)
		_, batched = s.Submit(0, reqs)

		resetTime(dev)
		now := sim.Time(0)
		for _, r := range reqs {
			_, _, done, err := dev.ReadPage(now, r.Addr, nil)
			if err != nil {
				b.Fatal(err)
			}
			now = done
		}
		serial = now
	}
	b.ReportMetric(float64(batched)/float64(len(reqs)), "virt-ns/read-batched")
	b.ReportMetric(float64(serial)/float64(len(reqs)), "virt-ns/read-serial")
	b.ReportMetric(float64(serial)/float64(batched), "speedup-x")
	if batched >= serial {
		b.Fatalf("batched makespan %v not better than serial %v", batched, serial)
	}
}

func TestDieIdleAtTracksDispatchedWork(t *testing.T) {
	dev := testDevice(t)
	program(t, dev, 0, 2)
	resetTime(dev)
	s := New(dev)
	if s.DieIdleAt(0) != 0 || s.DieIdleAt(1) != 0 {
		t.Fatal("fresh scheduler should report every die idle at t=0")
	}
	cs, end := s.Submit(0, []Request{
		{Op: OpReadPage, Addr: flash.Addr{Die: 0, Block: 0, Page: 0}, Priority: PrioHostRead},
		{Op: OpReadPage, Addr: flash.Addr{Die: 0, Block: 0, Page: 1}, Priority: PrioHostRead},
	})
	for _, c := range cs {
		if c.Err != nil {
			t.Fatal(c.Err)
		}
	}
	if got := s.DieIdleAt(0); got != end {
		t.Fatalf("die 0 idle at %v, want batch end %v", got, end)
	}
	if got := s.DieIdleAt(1); got != 0 {
		t.Fatalf("die 1 was never used, idle at %v, want 0", got)
	}
	// Out-of-range dies are reported idle instead of panicking.
	if s.DieIdleAt(-1) != 0 || s.DieIdleAt(10_000) != 0 {
		t.Fatal("out-of-range dies should report idle at 0")
	}
}

func TestGCStepMetrics(t *testing.T) {
	dev := testDevice(t)
	s := New(dev)
	s.ObserveGCStep(100)
	s.ObserveGCStep(300)
	s.ObserveGCStall()
	vals := s.Metrics().CounterValues()
	if vals["iosched.gc_steps"] != 2 {
		t.Fatalf("gc_steps = %d, want 2", vals["iosched.gc_steps"])
	}
	if vals["iosched.gc_watermark_stalls"] != 1 {
		t.Fatalf("gc_watermark_stalls = %d, want 1", vals["iosched.gc_watermark_stalls"])
	}
	if h := s.Metrics().Histogram("iosched.gc_step_span"); h.Count() != 2 {
		t.Fatalf("gc_step_span observations = %d, want 2", h.Count())
	}
}

// TestConcurrentSubmitters drives Submit from many goroutines at once (mixed
// with the async Enqueue/Wait ticket path) and checks the accounting:
// request/batch counters are exact, per-die busy horizons cover all work, and
// every ticket is served.  Run with -race this exercises the lock-free
// dispatch path against the mutex-guarded ticket path.
func TestConcurrentSubmitters(t *testing.T) {
	dev := testDevice(t)
	geo := dev.Geometry()
	for d := 0; d < geo.Dies(); d++ {
		program(t, dev, d, 8)
	}
	resetTime(dev)
	s := New(dev)

	const workers = 8
	const batchesPerWorker = 40
	const reqsPerBatch = 4
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			now := sim.Time(0)
			for b := 0; b < batchesPerWorker; b++ {
				reqs := make([]Request, reqsPerBatch)
				for i := range reqs {
					die := (id + i) % geo.Dies()
					reqs[i] = Request{
						Op:       OpReadPage,
						Addr:     flash.Addr{Die: die, Block: 0, Page: (b + i) % 8},
						Priority: PrioHostRead,
						Tag:      uint64(id*1000 + b),
					}
				}
				cs, end := s.Submit(now, reqs)
				for _, c := range cs {
					if c.Err != nil {
						errCh <- c.Err
						return
					}
					if c.Done > end {
						errCh <- fmt.Errorf("completion %v after makespan %v", c.Done, end)
						return
					}
				}
				now = end
				// Interleave the async ticket path.
				if b%8 == 0 {
					tk := s.Enqueue(Request{
						Op:       OpReadMeta,
						Addr:     flash.Addr{Die: id % geo.Dies(), Block: 0, Page: 0},
						Priority: PrioGC,
					})
					if c, ok := s.Wait(now, tk); !ok {
						errCh <- fmt.Errorf("ticket %d lost", tk)
						return
					} else if c.Err != nil {
						errCh <- c.Err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	const asyncBatches = workers * (batchesPerWorker/8 + (batchesPerWorker%8+7)/8) // ceil not needed; computed below
	_ = asyncBatches
	wantReqs := int64(workers*batchesPerWorker*reqsPerBatch) + int64(workers*5) // 5 async per worker (b=0,8,16,24,32)
	if got := s.requests.Value(); got != wantReqs {
		t.Fatalf("requests = %d, want %d", got, wantReqs)
	}
	if got := s.batches.Value(); got != int64(workers*batchesPerWorker+workers*5) {
		t.Fatalf("batches = %d, want %d", got, workers*batchesPerWorker+workers*5)
	}
	if s.QueueDepth() != 0 {
		t.Fatalf("pending requests leaked: %d", s.QueueDepth())
	}
	// Every die saw work, so every busy horizon must have advanced.
	for d := 0; d < geo.Dies(); d++ {
		if s.DieIdleAt(d) == 0 {
			t.Fatalf("die %d horizon never advanced", d)
		}
	}
}

// TestSingleRequestAccountingMatchesBatchOfOne drives the same commands once
// through the one-request calls and once as Submit batches of one: the
// completions and every scheduler counter must agree.
func TestSingleRequestAccountingMatchesBatchOfOne(t *testing.T) {
	type result struct {
		done sim.Time
		err  error
	}
	run := func(single bool) ([]result, *Scheduler) {
		dev := testDevice(t)
		program(t, dev, 1, 2)
		resetTime(dev)
		s := New(dev)
		payload := make([]byte, dev.Geometry().PageSize)
		src := flash.Addr{Die: 1, Block: 0, Page: 1}
		reqs := []Request{
			{Op: OpReadPage, Addr: src, Priority: PrioHostRead},
			{Op: OpProgram, Addr: flash.Addr{Die: 2, Block: 0, Page: 0}, Data: payload, Priority: PrioHostWrite},
			{Op: OpCopyback, Addr: src, Dst: flash.Addr{Die: 1, Block: 1, Page: 0}, Priority: PrioGC},
			{Op: OpErase, Block: flash.BlockAddr{Die: 1, Block: 0}, Priority: PrioGC},
			{Op: OpReadPage, Addr: flash.Addr{Die: 3, Block: 0, Page: 0}, Priority: PrioHostRead}, // erased: fails
		}
		var out []result
		now := sim.Time(0)
		for _, r := range reqs {
			var c result
			if single {
				switch r.Op {
				case OpReadPage:
					_, _, c.done, c.err = s.Read(now, r.Addr, nil, r.Priority)
				case OpProgram:
					c.done, c.err = s.Program(now, r.Addr, r.Data, r.Meta, r.Priority)
				case OpCopyback:
					_, c.done, c.err = s.Copyback(now, r.Addr, r.Dst)
				case OpErase:
					c.done, c.err = s.Erase(now, r.Block, r.Priority)
				}
			} else {
				cs, _ := s.Submit(now, []Request{r})
				c = result{cs[0].Done, cs[0].Err}
			}
			out = append(out, c)
			now = sim.MaxTime(now, c.done)
		}
		return out, s
	}
	one, s1 := run(true)
	batch, s2 := run(false)
	for i := range one {
		if one[i].done != batch[i].done || (one[i].err == nil) != (batch[i].err == nil) {
			t.Fatalf("request %d: single %+v, batch %+v", i, one[i], batch[i])
		}
	}
	if batch[len(batch)-1].err == nil {
		t.Fatal("read of an erased page succeeded")
	}
	m1, m2 := s1.Metrics(), s2.Metrics()
	if a, b := m1.CounterValues(), m2.CounterValues(); fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("counters differ:\nsingle %v\nbatch  %v", a, b)
	}
	if a, b := m1.Gauge("iosched.max_batch_size").Value(), m2.Gauge("iosched.max_batch_size").Value(); a != b || a != 1 {
		t.Fatalf("max batch size: single %d, batch %d, want 1", a, b)
	}
	for _, h := range []string{"iosched.batch_span", "iosched.latency.host_read", "iosched.latency.host_write", "iosched.latency.gc"} {
		a, b := m1.Histogram(h).Snapshot(), m2.Histogram(h).Snapshot()
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Fatalf("%s differs: single %+v, batch %+v", h, a, b)
		}
	}
}

// TestSingleRequestAllocs pins the one-request paths the space manager uses
// for every page read and program: they allocate nothing.
func TestSingleRequestAllocs(t *testing.T) {
	dev := testDevice(t)
	s := New(dev)
	geo := dev.Geometry()
	payload := make([]byte, geo.PageSize)
	buf := make([]byte, geo.PageSize)
	blk := flash.BlockAddr{Die: 0, Block: 0}
	cycle := func() {
		for p := 0; p < geo.PagesPerBlock; p++ {
			addr := flash.Addr{Die: 0, Block: 0, Page: p}
			if _, err := s.Program(0, addr, payload, flash.PageMeta{LPN: uint64(p)}, PrioHostWrite); err != nil {
				t.Fatal(err)
			}
			if _, _, _, err := s.Read(0, addr, buf, PrioHostRead); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.Erase(0, blk, PrioGC); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Fatalf("program/read/erase cycle allocated %.1f times, want 0", allocs)
	}
}

// BenchmarkSchedulerProgram programs one page per op through the one-request
// path, erasing the block each time it fills.
func BenchmarkSchedulerProgram(b *testing.B) {
	dev := testDevice(b)
	s := New(dev)
	geo := dev.Geometry()
	payload := make([]byte, geo.PageSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := i % geo.PagesPerBlock
		if _, err := s.Program(0, flash.Addr{Die: 0, Block: 0, Page: p}, payload, flash.PageMeta{LPN: uint64(i)}, PrioHostWrite); err != nil {
			b.Fatal(err)
		}
		if p == geo.PagesPerBlock-1 {
			if _, err := s.Erase(0, flash.BlockAddr{Die: 0, Block: 0}, PrioGC); err != nil {
				b.Fatal(err)
			}
		}
	}
}
