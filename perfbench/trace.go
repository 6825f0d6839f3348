package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"noftl"
)

// spanKind names a span: one call into a layer's public function, or the
// transaction (kv) or tpcc.Run round (tpcc) that encloses those calls.
type spanKind uint8

const (
	spanTxn    spanKind = iota // root: one kv transaction
	spanRound                  // root: one tpcc.Run round
	spanLock                   // Tx.Lock
	spanLookup                 // Index.Lookup
	spanRange                  // Index.Range, to the end of the scan
	spanGet                    // Table.Get
	spanUpdate                 // Table.Update
	spanCommit                 // Tx.Commit
	numSpanKinds
)

var spanNames = [numSpanKinds]string{"txn", "round", "txn.lock", "btree.lookup", "btree.range", "storage.get", "storage.update", "wal.commit"}

// span is one recorded interval.  Wall times are nanoseconds since the
// tracer started; sim times are the transaction's virtual clock.
type span struct {
	id, parent       uint32 // parent 0: a root span
	kind             spanKind
	txn              uint64
	start, end       int64
	simStart, simEnd noftl.Time
	self             int64 // wall duration minus the child spans it covers
}

// spanAgg sums the spans of one kind.
type spanAgg struct {
	count  int64
	selfNs int64
	simNs  int64
}

// maxKeptSpans bounds the spans held for the trace file (~10 MB of JSON); the
// aggregates cover every span.
const maxKeptSpans = 1 << 16

// tracer records spans from the benchmark's own calls into the program.  It
// is single-goroutine: the benchmark drives every workload from one
// goroutine.  A nil *tracer records nothing.
type tracer struct {
	origin  time.Time
	nextID  uint32
	kept    []span
	dropped int64
	agg     [numSpanKinds]spanAgg
	// open is the stack of unfinished spans; childNs sums the wall time of
	// each open span's finished children.
	open    []span
	childNs []int64
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), kept: make([]span, 0, 1024)}
}

// begin opens a span of kind k for transaction txn at virtual time sim.
func (t *tracer) begin(k spanKind, txn uint64, sim noftl.Time) {
	if t == nil {
		return
	}
	t.nextID++
	s := span{id: t.nextID, kind: k, txn: txn, simStart: sim, start: int64(time.Since(t.origin))}
	if n := len(t.open); n > 0 {
		s.parent = t.open[n-1].id
	}
	t.open = append(t.open, s)
	t.childNs = append(t.childNs, 0)
}

// end closes the innermost open span at virtual time sim.
func (t *tracer) end(sim noftl.Time) {
	if t == nil {
		return
	}
	n := len(t.open) - 1
	s := t.open[n]
	s.end = int64(time.Since(t.origin))
	s.simEnd = sim
	dur := s.end - s.start
	s.self = dur - t.childNs[n]
	t.open, t.childNs = t.open[:n], t.childNs[:n]
	if n > 0 {
		t.childNs[n-1] += dur
	}
	a := &t.agg[s.kind]
	a.count++
	a.selfNs += s.self
	a.simNs += int64(s.simEnd - s.simStart)
	if len(t.kept) < maxKeptSpans {
		t.kept = append(t.kept, s)
	} else {
		t.dropped++
	}
}

// meanSelfUs and meanSimUs are the mean self wall time and mean virtual
// duration of a kind's spans, in microseconds.
func (t *tracer) meanSelfUs(k spanKind) float64 {
	a := t.agg[k]
	if a.count == 0 {
		return 0
	}
	return float64(a.selfNs) / float64(a.count) / 1e3
}

func (t *tracer) meanSimUs(k spanKind) float64 {
	a := t.agg[k]
	if a.count == 0 {
		return 0
	}
	return float64(a.simNs) / float64(a.count) / 1e3
}

// write stores the kept spans as JSON lines, one span per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	var b []byte
	for _, s := range t.kept {
		b = append(b[:0], `{"id":`...)
		b = strconv.AppendUint(b, uint64(s.id), 10)
		b = append(b, `,"parent":`...)
		b = strconv.AppendUint(b, uint64(s.parent), 10)
		b = append(b, `,"name":"`...)
		b = append(b, spanNames[s.kind]...)
		b = append(b, `","txn":`...)
		b = strconv.AppendUint(b, s.txn, 10)
		b = append(b, `,"start_ns":`...)
		b = strconv.AppendInt(b, s.start, 10)
		b = append(b, `,"end_ns":`...)
		b = strconv.AppendInt(b, s.end, 10)
		b = append(b, `,"self_ns":`...)
		b = strconv.AppendInt(b, s.self, 10)
		b = append(b, `,"sim_start_ns":`...)
		b = strconv.AppendInt(b, int64(s.simStart), 10)
		b = append(b, `,"sim_end_ns":`...)
		b = strconv.AppendInt(b, int64(s.simEnd), 10)
		b = append(b, "}\n"...)
		if _, err := w.Write(b); err != nil {
			f.Close()
			return err
		}
	}
	if t.dropped > 0 {
		fmt.Fprintf(w, "{\"dropped_spans\":%d}\n", t.dropped)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
