// Package wal implements the write-ahead log of the reproduction's storage
// engine.  Log records are buffered in memory, packed into 4 KiB log pages
// and forced to the flash device on commit (group commit of everything
// buffered so far).  The log is an append-mostly object; under the paper's
// placement model it belongs in the metadata/append region, which is exactly
// where the Region Advisor puts it.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"runtime"
	"slices"
	"sync"

	"noftl/internal/core"
	"noftl/internal/obs"
	"noftl/internal/sim"
	"noftl/internal/storage"
)

// RecordType tags a log record.
type RecordType uint8

// Log record types.
const (
	RecBegin RecordType = iota + 1
	RecCommit
	RecAbort
	RecInsert
	RecUpdate
	RecDelete
	RecCheckpoint
	RecIndexInsert
	RecIndexDelete
)

func (t RecordType) String() string {
	switch t {
	case RecBegin:
		return "BEGIN"
	case RecCommit:
		return "COMMIT"
	case RecAbort:
		return "ABORT"
	case RecInsert:
		return "INSERT"
	case RecUpdate:
		return "UPDATE"
	case RecDelete:
		return "DELETE"
	case RecCheckpoint:
		return "CHECKPOINT"
	case RecIndexInsert:
		return "IDX-INSERT"
	case RecIndexDelete:
		return "IDX-DELETE"
	default:
		return "UNKNOWN"
	}
}

// Record is one write-ahead-log record.
type Record struct {
	LSN      uint64
	Type     RecordType
	TxnID    uint64
	ObjectID uint32
	Payload  []byte
}

// Errors returned by the log.
var (
	// ErrCorrupt reports a log record whose checksum does not match.
	ErrCorrupt = errors.New("wal: corrupt log record")
	// ErrTooLarge reports a record that does not fit into a log page.
	ErrTooLarge = errors.New("wal: record larger than a log page")
)

const recHeaderSize = 8 + 1 + 8 + 4 + 4 + 4 // lsn, type, txn, obj, payloadLen, crc

// appendRecord appends the encoding of r to dst and returns the extended
// slice.
func appendRecord(dst []byte, r Record) []byte {
	n := len(dst)
	dst = slices.Grow(dst, recHeaderSize+len(r.Payload))[:n+recHeaderSize+len(r.Payload)]
	out := dst[n:]
	binary.LittleEndian.PutUint64(out[0:], r.LSN)
	out[8] = byte(r.Type)
	binary.LittleEndian.PutUint64(out[9:], r.TxnID)
	binary.LittleEndian.PutUint32(out[17:], r.ObjectID)
	binary.LittleEndian.PutUint32(out[21:], uint32(len(r.Payload)))
	copy(out[29:], r.Payload)
	crc := crc32.ChecksumIEEE(out[:25])
	crc = crc32.Update(crc, crc32.IEEETable, r.Payload)
	binary.LittleEndian.PutUint32(out[25:], crc)
	return dst
}

func decodeRecord(b []byte) (Record, error) {
	if len(b) < recHeaderSize {
		return Record{}, fmt.Errorf("%w: short record", ErrCorrupt)
	}
	r := Record{
		LSN:      binary.LittleEndian.Uint64(b[0:]),
		Type:     RecordType(b[8]),
		TxnID:    binary.LittleEndian.Uint64(b[9:]),
		ObjectID: binary.LittleEndian.Uint32(b[17:]),
	}
	plen := binary.LittleEndian.Uint32(b[21:])
	if int(plen) != len(b)-recHeaderSize {
		return Record{}, fmt.Errorf("%w: payload length mismatch", ErrCorrupt)
	}
	r.Payload = append([]byte(nil), b[29:]...)
	want := binary.LittleEndian.Uint32(b[25:])
	crc := crc32.ChecksumIEEE(b[:25])
	crc = crc32.Update(crc, crc32.IEEETable, r.Payload)
	if crc != want {
		return Record{}, fmt.Errorf("%w: checksum mismatch for lsn %d", ErrCorrupt, r.LSN)
	}
	return r, nil
}

// Log is the write-ahead log manager.
type Log struct {
	mu       sync.Mutex
	mgr      *core.Manager
	hint     core.Hint
	pageSize int

	nextLSN    uint64
	flushedLSN uint64

	cur        []byte   // current (partial) log page image
	curLPN     core.LPN // logical page the current page will be written to
	sealedWr   []sealedPage
	pages      []core.LPN          // every log page ever allocated, in order
	pageMaxLSN map[core.LPN]uint64 // highest LSN stored in each sealed page

	// Buffers reused so that appends and forces do not allocate.  enc is
	// Append's record encoding and spare holds sealed page images already
	// forced, which openPage reinitializes; both are guarded by mu.  snap is
	// the flush leader's copy of the partial current page: only the leader
	// touches it, also while mu is released for the device writes.
	enc   []byte
	spare [][]byte
	snap  []byte

	appended int64
	flushes  int64
	bytes    int64

	// Byte accounting across checkpoints: pageBytes tracks the encoded
	// record bytes held by each live log page, so Truncate can move a
	// dropped page's bytes from the live total to the trimmed total instead
	// of leaking them (Stats().WAL reconciles: live = appended - trimmed).
	pageBytes    map[core.LPN]int64
	bytesTrimmed int64
	pagesTrimmed int64

	// Group commit.  Committers queue behind a single flush leader; the
	// leader forces everything appended so far with one device write chain,
	// making all queued commit records durable at once.  Committers that
	// queue while a force is in flight are made durable by the next one,
	// and a new leader yields once to let runnable committers queue
	// (gatherLocked).
	commitCond    *sync.Cond
	flushLeader   bool
	commitPending int
	yieldGap      int      // forces between the leader's yields (see gatherLocked)
	yieldIn       int      // forces left until the next yield
	groupMaxNow   sim.Time // max virtual time across the forming group
	flushDoneAt   sim.Time // virtual end of the latest flush
	groupCommits  int64    // flushes that made more than one committer durable
	groupedTxns   int64    // committers served by Commit, across all groups

	tracer *obs.Tracer // nil = tracing off
}

type sealedPage struct {
	lpn  core.LPN
	data []byte
}

// New creates a log writing pages through mgr with the given placement hint
// (normally the hint of the log object's tablespace).
func New(mgr *core.Manager, hint core.Hint, pageSize int) *Log {
	l := &Log{
		mgr:        mgr,
		hint:       hint,
		pageSize:   pageSize,
		nextLSN:    1,
		pageMaxLSN: make(map[core.LPN]uint64),
		pageBytes:  make(map[core.LPN]int64),
	}
	l.commitCond = sync.NewCond(&l.mu)
	l.hint.Flags |= flashFlagLog
	l.openPage()
	return l
}

// flashFlagLog mirrors flash.FlagLog without importing the flash package
// here (the hint flag bits are defined by the flash OOB metadata).
const flashFlagLog uint16 = 1

func (l *Log) openPage() {
	l.curLPN = l.mgr.AllocateLPNs(1)
	if n := len(l.spare); n > 0 {
		l.cur = l.spare[n-1]
		l.spare[n-1] = nil
		l.spare = l.spare[:n-1]
	} else {
		l.cur = make([]byte, l.pageSize)
	}
	storage.InitPage(l.cur, storage.PageTypeLog, l.hint.ObjectID, uint64(l.curLPN))
	l.pages = append(l.pages, l.curLPN)
}

// AttachObs wires the log to the trace recorder.  A nil tracer (the default)
// keeps tracing off.  Attach before the log sees traffic.
func (l *Log) AttachObs(tr *obs.Tracer) {
	l.mu.Lock()
	l.tracer = tr
	l.mu.Unlock()
}

// NextLSN returns the LSN the next appended record will receive.
func (l *Log) NextLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN
}

// FlushedLSN returns the highest LSN known to be durable.
func (l *Log) FlushedLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.flushedLSN
}

// Appended returns the number of records appended so far.
func (l *Log) Appended() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appended
}

// Flushes returns the number of Flush calls that wrote pages.
func (l *Log) Flushes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.flushes
}

// GroupCommits returns the number of log forces that made more than one
// committer durable at once.
func (l *Log) GroupCommits() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.groupCommits
}

// GroupedTxns returns the number of committers served by Commit across all
// groups (GroupedTxns / Flushes is the mean group size when every force goes
// through Commit).
func (l *Log) GroupedTxns() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.groupedTxns
}

// PageCount returns the number of log pages allocated.
func (l *Log) PageCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.pages)
}

// Append adds a record to the log buffer and returns its LSN.  The record is
// not durable until Flush returns.
func (l *Log) Append(typ RecordType, txnID uint64, objectID uint32, payload []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	rec := Record{LSN: l.nextLSN, Type: typ, TxnID: txnID, ObjectID: objectID, Payload: payload}
	// InsertRecord copies the encoding into the page, so one scratch buffer
	// serves every Append.
	l.enc = appendRecord(l.enc[:0], rec)
	enc := l.enc
	if len(enc) > l.pageSize-storage.PageHeaderSize-8 {
		return 0, fmt.Errorf("%w: %d bytes", ErrTooLarge, len(enc))
	}
	if _, err := storage.InsertRecord(l.cur, enc); err != nil {
		// Current page is full: seal it and start a new one.
		l.sealedWr = append(l.sealedWr, sealedPage{lpn: l.curLPN, data: l.cur})
		l.pageMaxLSN[l.curLPN] = l.nextLSN - 1
		l.openPage()
		if _, err := storage.InsertRecord(l.cur, enc); err != nil {
			return 0, err
		}
	}
	l.nextLSN++
	l.appended++
	l.bytes += int64(len(enc))
	l.pageBytes[l.curLPN] += int64(len(enc))
	if l.tracer.Enabled(obs.ClassWALAppend) {
		// Append is a pure memory operation: it carries no virtual-time span
		// of its own (durability cost lands on the Flush event).
		l.tracer.Record(obs.Event{
			Class: obs.ClassWALAppend, Op: uint8(typ),
			Die: -1, Block: -1, Page: -1, Region: int32(l.hint.Region),
			A: int64(rec.LSN), B: int64(len(enc)),
		})
	}
	return rec.LSN, nil
}

// Flush forces every appended record to the device (sealed full pages plus
// the current partial page) and returns the caller's advanced virtual time.
// If a group-commit flush is in flight, Flush waits for it and then forces
// whatever is still buffered.
//
// The log is deliberately written page-at-a-time rather than as one
// die-striped batch: the WAL is an append stream confined to its (often
// small) metadata region, and its flush cadence is part of the measured
// foreground-GC interference the paper's experiments compare.
func (l *Log) Flush(now sim.Time) (sim.Time, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.flushLeader {
		l.commitCond.Wait()
	}
	if l.flushedLSN == l.nextLSN-1 {
		return now, nil // nothing new
	}
	l.flushLeader = true
	if now > l.groupMaxNow {
		l.groupMaxNow = now
	}
	done, err := l.flushGroupLocked()
	l.flushLeader = false
	l.commitCond.Broadcast()
	if err != nil {
		return now, err
	}
	return sim.MaxTime(now, done), nil
}

// Commit makes the record at lsn (and everything before it) durable and
// returns the virtual time at which durability was reached for a committer
// whose current virtual time is now.  Concurrent committers form a group: one
// becomes the flush leader and forces the log once for all of them; the rest
// wait for the leader and return without issuing any device writes of their
// own.  That one force is what lets N workers commit with far fewer than N
// log-page writes.
func (l *Log) Commit(now sim.Time, lsn uint64) (sim.Time, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if now > l.groupMaxNow {
		l.groupMaxNow = now
	}
	l.commitPending++
	defer func() { l.commitPending-- }()
	for {
		if l.flushedLSN >= lsn {
			l.groupedTxns++
			return sim.MaxTime(now, l.flushDoneAt), nil
		}
		if !l.flushLeader {
			break
		}
		l.commitCond.Wait()
	}
	// We are the flush leader for this group.
	l.flushLeader = true
	l.gatherLocked()
	grouped := int64(l.commitPending)
	done, err := l.flushGroupLocked()
	l.flushLeader = false
	l.commitCond.Broadcast()
	if err != nil {
		return now, err
	}
	l.groupedTxns++
	if grouped > 1 {
		l.groupCommits++
	}
	return sim.MaxTime(now, done), nil
}

// maxYieldGap bounds how many forces a leader skips yielding after yields
// that gathered no other committer.
const maxYieldGap = 64

// gatherLocked lets a new flush leader collect its group without a timer:
// it yields the processor once, so committers that are runnable but not yet
// scheduled append their records and queue behind this force instead of
// each forcing alone.  A yield that gathers nobody doubles the number of
// forces until the next one (up to maxYieldGap), so a lone committer almost
// never pays for it; one that gathers a group resets the gap.  Caller holds
// l.mu and has claimed flush leadership.
func (l *Log) gatherLocked() {
	if l.yieldIn > 0 {
		l.yieldIn--
		return
	}
	l.mu.Unlock()
	runtime.Gosched()
	l.mu.Lock()
	if l.commitPending > 1 {
		l.yieldGap = 0
	} else {
		l.yieldGap = min(max(1, 2*l.yieldGap), maxYieldGap)
	}
	l.yieldIn = l.yieldGap
}

// flushGroupLocked forces everything appended so far.  Caller holds l.mu and
// has claimed flush leadership; the device writes happen with l.mu released,
// so appends (and committers joining the next group) proceed during the
// force.  Returns with l.mu held.
func (l *Log) flushGroupLocked() (sim.Time, error) {
	flushNow := l.groupMaxNow
	l.groupMaxNow = 0
	if l.flushedLSN == l.nextLSN-1 {
		return sim.MaxTime(flushNow, l.flushDoneAt), nil
	}
	hw := l.nextLSN - 1
	newlyDurable := hw - l.flushedLSN
	sealed := l.sealedWr
	l.sealedWr = nil
	curLPN := l.curLPN
	// Snapshot the partial page: appends may extend l.cur while the device
	// writes run.  Records beyond the snapshot stay buffered for the next
	// force; re-writing the page later simply supersedes this version out of
	// place.
	l.snap = append(l.snap[:0], l.cur...)
	cur := l.snap
	start := flushNow
	l.mu.Unlock()
	vnow := flushNow
	var err error
	for _, sp := range sealed {
		var done sim.Time
		done, err = l.mgr.WritePage(vnow, sp.lpn, sp.data, l.hint)
		if err != nil {
			err = fmt.Errorf("wal: flush sealed page: %w", err)
			break
		}
		vnow = done
	}
	if err == nil {
		var done sim.Time
		done, err = l.mgr.WritePage(vnow, curLPN, cur, l.hint)
		if err != nil {
			err = fmt.Errorf("wal: flush current page: %w", err)
		} else {
			vnow = done
		}
	}
	l.mu.Lock()
	if err != nil {
		// Put the sealed pages back (ahead of any sealed since) so a retry
		// re-writes them.
		l.sealedWr = append(sealed, l.sealedWr...)
		return vnow, err
	}
	// The device copied every image it programmed, and a sealed page is
	// never written again, so its buffer can hold a later page.
	for _, sp := range sealed {
		l.spare = append(l.spare, sp.data)
	}
	if hw > l.flushedLSN {
		l.flushedLSN = hw
	}
	if vnow > l.flushDoneAt {
		l.flushDoneAt = vnow
	}
	l.flushes++
	if l.tracer.Enabled(obs.ClassWALSync) {
		l.tracer.Record(obs.Event{
			Class: obs.ClassWALSync, Die: -1, Block: -1, Page: -1,
			Region: int32(l.hint.Region), Start: start, End: vnow,
			A: int64(newlyDurable), B: int64(l.flushedLSN),
		})
	}
	return vnow, nil
}

// ReadAll reads every durable log record back from the device in LSN order
// (records appended but never flushed are not returned).  It is the recovery
// scan.
func (l *Log) ReadAll(now sim.Time) ([]Record, sim.Time, error) {
	l.mu.Lock()
	pages := append([]core.LPN(nil), l.pages...)
	l.mu.Unlock()

	var out []Record
	buf := make([]byte, l.pageSize)
	for _, lpn := range pages {
		data, done, err := l.mgr.ReadPage(now, lpn, buf)
		if err != nil {
			if errors.Is(err, core.ErrUnmappedPage) {
				continue // never flushed
			}
			return nil, now, err
		}
		now = done
		var decodeErr error
		_ = storage.IterateRecords(data, func(slot uint16, rec []byte) bool {
			r, err := decodeRecord(rec)
			if err != nil {
				decodeErr = err
				return false
			}
			out = append(out, r)
			return true
		})
		if decodeErr != nil {
			return nil, now, decodeErr
		}
	}
	return out, now, nil
}

// CommittedTxns scans the durable log and returns the set of transaction ids
// that have a COMMIT record — the first phase of a redo recovery.
func (l *Log) CommittedTxns(now sim.Time) (map[uint64]bool, sim.Time, error) {
	recs, now, err := l.ReadAll(now)
	if err != nil {
		return nil, now, err
	}
	committed := make(map[uint64]bool)
	for _, r := range recs {
		if r.Type == RecCommit {
			committed[r.TxnID] = true
		}
	}
	return committed, now, nil
}

// Truncate drops every sealed log page whose records all lie strictly below
// upToLSN, trimming them on the device (checkpointing).  The current page and
// pages that were never flushed are never dropped.  It returns the number of
// pages removed.
func (l *Log) Truncate(upToLSN uint64) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	dropped := 0
	kept := l.pages[:0]
	for _, lpn := range l.pages {
		maxLSN, sealed := l.pageMaxLSN[lpn]
		if lpn == l.curLPN || !sealed || maxLSN >= upToLSN {
			kept = append(kept, lpn)
			continue
		}
		if err := l.mgr.TrimPage(lpn); err != nil {
			kept = append(kept, lpn)
			continue
		}
		delete(l.pageMaxLSN, lpn)
		l.bytesTrimmed += l.pageBytes[lpn]
		delete(l.pageBytes, lpn)
		l.pagesTrimmed++
		dropped++
	}
	l.pages = kept
	return dropped
}

// BytesAppended returns the total encoded record bytes ever appended.
func (l *Log) BytesAppended() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.bytes
}

// BytesTrimmed returns the encoded record bytes dropped by Truncate.
func (l *Log) BytesTrimmed() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.bytesTrimmed
}

// BytesLive returns the encoded record bytes still held by live log pages
// (appended minus trimmed) — the upper bound on what a crash now would
// replay.
func (l *Log) BytesLive() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.bytes - l.bytesTrimmed
}

// PagesTrimmed returns the number of log pages dropped by Truncate.
func (l *Log) PagesTrimmed() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.pagesTrimmed
}
