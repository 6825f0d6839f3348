package wal

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"noftl/internal/core"
	"noftl/internal/flash"
	"noftl/internal/sim"
)

func testLog(t testing.TB) (*Log, *core.Manager) {
	t.Helper()
	cfg := flash.DefaultConfig()
	cfg.Geometry = flash.Geometry{
		Channels: 2, DiesPerChannel: 1, PlanesPerDie: 1,
		BlocksPerDie: 64, PagesPerBlock: 16, PageSize: 512,
	}
	dev, err := flash.NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mgr := core.NewManager(dev, core.DefaultOptions())
	return New(mgr, core.Hint{ObjectID: 99}, 512), mgr
}

func TestRecordEncodeDecodeProperty(t *testing.T) {
	f := func(lsn, txn uint64, obj uint32, typ uint8, payload []byte) bool {
		r := Record{LSN: lsn, Type: RecordType(typ%7 + 1), TxnID: txn, ObjectID: obj, Payload: payload}
		dec, err := decodeRecord(appendRecord(nil, r))
		if err != nil {
			return false
		}
		return dec.LSN == r.LSN && dec.Type == r.Type && dec.TxnID == r.TxnID &&
			dec.ObjectID == r.ObjectID && bytes.Equal(dec.Payload, r.Payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRecordCorruptionDetected(t *testing.T) {
	enc := appendRecord(nil, Record{LSN: 1, Type: RecCommit, TxnID: 2, Payload: []byte("abc")})
	enc[len(enc)-1] ^= 0xFF
	if _, err := decodeRecord(enc); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
	if _, err := decodeRecord(enc[:5]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("short record: %v", err)
	}
	// Length mismatch.
	enc2 := appendRecord(nil, Record{LSN: 1, Type: RecCommit, Payload: []byte("abc")})
	if _, err := decodeRecord(enc2[:len(enc2)-1]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated record: %v", err)
	}
}

func TestAppendFlushReadAll(t *testing.T) {
	l, mgr := testLog(t)
	if l.NextLSN() != 1 || l.FlushedLSN() != 0 {
		t.Fatalf("fresh log LSNs wrong: %d %d", l.NextLSN(), l.FlushedLSN())
	}
	var lsns []uint64
	for i := 0; i < 100; i++ {
		lsn, err := l.Append(RecUpdate, uint64(i%7), uint32(i%3), []byte(fmt.Sprintf("payload-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		lsns = append(lsns, lsn)
	}
	if l.Appended() != 100 {
		t.Fatalf("appended = %d", l.Appended())
	}
	for i := 1; i < len(lsns); i++ {
		if lsns[i] != lsns[i-1]+1 {
			t.Fatal("LSNs not consecutive")
		}
	}
	// Nothing durable yet.
	recs, _, err := l.ReadAll(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("unflushed records visible: %d", len(recs))
	}
	done, err := l.Flush(0)
	if err != nil {
		t.Fatal(err)
	}
	if done <= 0 {
		t.Fatal("flush consumed no virtual time")
	}
	if l.FlushedLSN() != 100 {
		t.Fatalf("flushedLSN = %d", l.FlushedLSN())
	}
	if mgr.Stats().HostWrites == 0 {
		t.Fatal("flush wrote nothing to flash")
	}
	// Idempotent flush.
	if _, err := l.Flush(done); err != nil {
		t.Fatal(err)
	}
	if l.Flushes() != 1 {
		t.Fatalf("flushes = %d", l.Flushes())
	}
	recs, _, err = l.ReadAll(done)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 100 {
		t.Fatalf("recovered %d records", len(recs))
	}
	for i, r := range recs {
		if r.LSN != uint64(i+1) {
			t.Fatalf("record %d has lsn %d", i, r.LSN)
		}
		if string(r.Payload) != fmt.Sprintf("payload-%d", i) {
			t.Fatalf("record %d payload %q", i, r.Payload)
		}
	}
	if l.PageCount() < 2 {
		t.Fatalf("expected multiple log pages, got %d", l.PageCount())
	}
}

func TestCommittedTxns(t *testing.T) {
	l, _ := testLog(t)
	mustAppend := func(typ RecordType, txn uint64) {
		if _, err := l.Append(typ, txn, 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	mustAppend(RecBegin, 1)
	mustAppend(RecUpdate, 1)
	mustAppend(RecCommit, 1)
	mustAppend(RecBegin, 2)
	mustAppend(RecUpdate, 2)
	mustAppend(RecBegin, 3)
	mustAppend(RecAbort, 3)
	if _, err := l.Flush(0); err != nil {
		t.Fatal(err)
	}
	committed, _, err := l.CommittedTxns(0)
	if err != nil {
		t.Fatal(err)
	}
	if !committed[1] || committed[2] || committed[3] {
		t.Fatalf("committed set wrong: %v", committed)
	}
}

func TestAppendTooLarge(t *testing.T) {
	l, _ := testLog(t)
	if _, err := l.Append(RecUpdate, 1, 0, make([]byte, 600)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("want ErrTooLarge, got %v", err)
	}
}

func TestTypeString(t *testing.T) {
	for _, typ := range []RecordType{RecBegin, RecCommit, RecAbort, RecInsert, RecUpdate, RecDelete, RecCheckpoint, RecordType(99)} {
		if typ.String() == "" {
			t.Fatal("empty type string")
		}
	}
}

func TestTruncateDropsOldPages(t *testing.T) {
	l, mgr := testLog(t)
	for i := 0; i < 300; i++ {
		if _, err := l.Append(RecUpdate, 1, 0, []byte(fmt.Sprintf("rec-%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	now, err := l.Flush(0)
	if err != nil {
		t.Fatal(err)
	}
	pagesBefore := l.PageCount()
	if pagesBefore < 3 {
		t.Fatalf("not enough log pages for the test: %d", pagesBefore)
	}
	validBefore := mgr.Stats().ValidPages
	dropped := l.Truncate(250)
	if dropped == 0 {
		t.Fatal("truncate dropped nothing")
	}
	if l.PageCount() != pagesBefore-dropped {
		t.Fatalf("page count %d after dropping %d of %d", l.PageCount(), dropped, pagesBefore)
	}
	if mgr.Stats().ValidPages >= validBefore {
		t.Fatal("truncate did not trim pages on the device")
	}
	// The surviving records still decode and include the newest LSNs.
	recs, _, err := l.ReadAll(now)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 || recs[len(recs)-1].LSN != 300 {
		t.Fatalf("latest records lost after truncate: %d records", len(recs))
	}
}

// TestGroupCommitConcurrent drives many goroutines through Append+Commit on
// one log and checks that (a) every committer observes its own record as
// durable, (b) the recovered log preserves append (LSN) order exactly, and
// (c) the committers shared flushes: far fewer log forces than commits.
func TestGroupCommitConcurrent(t *testing.T) {
	l, _ := testLog(t)
	const workers = 8
	const perWorker = 50
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			now := sim.Time(0)
			for i := 0; i < perWorker; i++ {
				txn := uint64(id*perWorker + i + 1)
				if _, err := l.Append(RecUpdate, txn, 7, []byte{byte(id)}); err != nil {
					errCh <- err
					return
				}
				lsn, err := l.Append(RecCommit, txn, 0, nil)
				if err != nil {
					errCh <- err
					return
				}
				done, err := l.Commit(now, lsn)
				if err != nil {
					errCh <- err
					return
				}
				now = done
				if got := l.FlushedLSN(); got < lsn {
					errCh <- fmt.Errorf("commit returned but lsn %d > flushed %d", lsn, got)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	const commits = workers * perWorker
	if got := l.GroupedTxns(); got != commits {
		t.Fatalf("grouped txns = %d, want %d", got, commits)
	}
	if got := l.Flushes(); got >= commits {
		t.Fatalf("no grouping: %d flushes for %d commits", got, commits)
	}
	if l.GroupCommits() == 0 {
		t.Fatalf("no flush ever served more than one committer")
	}
	// Crash consistency: the durable image decodes cleanly and LSNs are
	// strictly sequential in recovery order (append order preserved).
	recs, _, err := l.ReadAll(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2*commits {
		t.Fatalf("recovered %d records, want %d", len(recs), 2*commits)
	}
	for i, r := range recs {
		if r.LSN != uint64(i+1) {
			t.Fatalf("record %d has lsn %d: append order not preserved", i, r.LSN)
		}
	}
	committed, _, err := l.CommittedTxns(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(committed) != commits {
		t.Fatalf("recovered %d committed txns, want %d", len(committed), commits)
	}
}

// TestCommitAlreadyDurable checks the piggyback path: a commit whose LSN was
// already forced by an earlier group returns without a new flush.
func TestCommitAlreadyDurable(t *testing.T) {
	l, _ := testLog(t)
	lsn1, _ := l.Append(RecCommit, 1, 0, nil)
	lsn2, _ := l.Append(RecCommit, 2, 0, nil)
	if _, err := l.Commit(10, lsn2); err != nil {
		t.Fatal(err)
	}
	flushes := l.Flushes()
	done, err := l.Commit(5, lsn1)
	if err != nil {
		t.Fatal(err)
	}
	if l.Flushes() != flushes {
		t.Fatalf("already-durable commit forced the log again")
	}
	if done < 10 {
		t.Fatalf("commit time %v went backwards past the covering flush", done)
	}
	// Flush with nothing buffered is a no-op too.
	if now, err := l.Flush(123); err != nil || now != 123 {
		t.Fatalf("empty flush: now=%v err=%v", now, err)
	}
}

// TestAppendCommitAllocs pins the lone committer's path: the record is
// encoded into the log's scratch buffer and the force reuses the leader's
// snapshot and the page images already forced, so in steady state an
// Append plus Commit allocates nothing.  The log is truncated every 64
// commits, as checkpoints do, and the warm-up runs until garbage collection
// has erased blocks, whose page images the device then reuses.
func TestAppendCommitAllocs(t *testing.T) {
	l, _ := testLog(t)
	payload := make([]byte, 40)
	now := sim.Time(0)
	txn := uint64(0)
	round := func() {
		txn++
		lsn, err := l.Append(RecUpdate, txn, 7, payload)
		if err != nil {
			t.Fatal(err)
		}
		if now, err = l.Commit(now, lsn); err != nil {
			t.Fatal(err)
		}
		if txn%64 == 0 {
			l.Truncate(lsn)
		}
	}
	for i := 0; i < 5000; i++ {
		round()
	}
	if allocs := testing.AllocsPerRun(1000, round); allocs != 0 {
		t.Fatalf("append + commit allocated %.1f times, want 0", allocs)
	}
}

// BenchmarkWALAppendCommit measures a lone committer's Append plus Commit,
// with the log truncated every page so the device never fills.
func BenchmarkWALAppendCommit(b *testing.B) {
	l, _ := testLog(b)
	payload := make([]byte, 40)
	now := sim.Time(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lsn, err := l.Append(RecUpdate, uint64(i+1), 7, payload)
		if err != nil {
			b.Fatal(err)
		}
		if now, err = l.Commit(now, lsn); err != nil {
			b.Fatal(err)
		}
		if i%64 == 63 {
			l.Truncate(lsn)
		}
	}
}
