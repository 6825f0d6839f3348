// Package txn provides the transaction manager of the reproduction's storage
// engine: transaction identities, strict two-phase locking on logical keys,
// commit/abort bookkeeping and per-transaction virtual-time accounting.
//
// The lock table is sharded by key hash, so concurrent transactions that
// touch different keys almost never share a mutex.  Lock waits are real
// (goroutine blocking) and read no wall clock.  A wait ends when the lock is
// granted, when it runs out of its virtual budget (the contended key has
// seen more than the timeout of simulated time pass, release to release,
// while the lock stayed unavailable), or at once if it would close a cycle
// in the waits-for graph (a deadlock).  A waiter behind a holder that never
// finishes and never waits, such as another transaction on the same
// goroutine, waits as it would on a sync.Mutex.  TPC-C transactions acquire
// their locks in a canonical order, so deadlocks cannot form in the
// benchmark itself.
package txn

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"noftl/internal/sim"
	"noftl/internal/wal"
)

// LockMode is the requested access mode for a key.
type LockMode int

// Lock modes.
const (
	Shared LockMode = iota
	Exclusive
)

// Errors returned by the transaction manager.
var (
	// ErrLockTimeout reports a lock wait that ran out of its virtual-time
	// budget or would have closed a deadlock cycle (the requester is the
	// victim).
	ErrLockTimeout = errors.New("txn: lock wait timeout")
	// ErrTxnDone reports an operation on a committed or aborted transaction.
	ErrTxnDone = errors.New("txn: transaction already finished")
)

// lockShards is the number of hash shards of the lock table.  Each shard has
// its own mutex and its own slice of the key space, so the shard count bounds
// the number of CPUs that can contend on lock-table metadata (the locks
// themselves still conflict only when transactions touch the same key).
const lockShards = 32

// lockState is the state of one lockable key.
type lockState struct {
	cond    *sync.Cond
	readers map[uint64]int // txn id -> hold count
	writer  uint64         // txn id holding exclusively, 0 if none
	waiters []uint64       // transactions currently blocked on this key
	// maxRelease is the highest virtual time at which a holder released this
	// key.  Waiters use it as the key's virtual-time frontier: when it moves
	// past a waiter's deadline while the lock stays unavailable, the wait
	// has deterministically timed out.
	maxRelease sim.Time
}

// lockShard is one slice of the lock table.
type lockShard struct {
	mu       sync.Mutex
	locks    map[string]*lockState
	waits    atomic.Int64
	timeouts atomic.Int64
}

func (sh *lockShard) state(key string) *lockState {
	ls, ok := sh.locks[key]
	if !ok {
		ls = &lockState{readers: make(map[uint64]int)}
		ls.cond = sync.NewCond(&sh.mu)
		sh.locks[key] = ls
	}
	return ls
}

// waitsFor is the waits-for graph over blocked transactions: each blocked
// transaction maps to the transactions it is waiting on.  A transaction
// waits for at most one key at a time.  Only requests that block touch the
// graph.  Lock order: a shard mutex, then mu; never the reverse.
type waitsFor struct {
	mu    sync.Mutex
	edges map[uint64][]uint64
}

// block records that waiter is blocked by blockers, replacing its previous
// edges.  If the new edges close a cycle, the waiter is taken out of the
// graph again and block reports the deadlock.
func (g *waitsFor) block(waiter uint64, blockers []uint64) (deadlock bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.edges[waiter] = blockers
	seen := make(map[uint64]bool)
	stack := slices.Clone(blockers)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n == waiter {
			delete(g.edges, waiter)
			return true
		}
		if !seen[n] {
			seen[n] = true
			stack = append(stack, g.edges[n]...)
		}
	}
	return false
}

// unblock takes waiter out of the graph once its wait is over.
func (g *waitsFor) unblock(waiter uint64) {
	g.mu.Lock()
	delete(g.edges, waiter)
	g.mu.Unlock()
}

// released drops the edges from waiters to txnID, which has just released
// the key they are waiting on.  The waiters re-record their blockers when
// the release wakes them; until then no stale edge can close a cycle.
func (g *waitsFor) released(txnID uint64, waiters []uint64) {
	g.mu.Lock()
	for _, w := range waiters {
		if e, ok := g.edges[w]; ok {
			g.edges[w] = slices.DeleteFunc(e, func(b uint64) bool { return b == txnID })
		}
	}
	g.mu.Unlock()
}

// LockManager implements strict two-phase locking over string keys.  All
// methods are safe for concurrent use.
type LockManager struct {
	shards  [lockShards]lockShard
	graph   waitsFor
	timeout time.Duration // virtual-time wait budget (ns, 1:1 with sim time)
}

// NewLockManager creates a lock manager with the given virtual-time wait
// budget (zero selects one second).
func NewLockManager(timeout time.Duration) *LockManager {
	if timeout <= 0 {
		timeout = time.Second
	}
	lm := &LockManager{timeout: timeout}
	lm.graph.edges = make(map[uint64][]uint64)
	for i := range lm.shards {
		lm.shards[i].locks = make(map[string]*lockState)
	}
	return lm
}

// shard maps a key to its lock-table shard (FNV-1a).
func (lm *LockManager) shard(key string) *lockShard {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return &lm.shards[h%lockShards]
}

// LockStats is a snapshot of lock-manager contention counters.
type LockStats struct {
	// Waits counts lock acquisitions that had to block; Timeouts counts
	// waits that ended in ErrLockTimeout (virtual timeouts and deadlock
	// victims).
	Waits    int64
	Timeouts int64
	// Held is the number of keys currently locked (shared or exclusive);
	// Waiting is the number of transactions currently blocked on a key.
	Held    int64
	Waiting int64
	// ShardWaits is the per-shard breakdown of Waits, exposing skew across
	// the lock-table shards.
	ShardWaits []int64
}

// Stats returns a snapshot of the lock manager's contention counters.
func (lm *LockManager) Stats() LockStats {
	st := LockStats{ShardWaits: make([]int64, lockShards)}
	for i := range lm.shards {
		sh := &lm.shards[i]
		st.ShardWaits[i] = sh.waits.Load()
		st.Waits += st.ShardWaits[i]
		st.Timeouts += sh.timeouts.Load()
		sh.mu.Lock()
		for _, ls := range sh.locks {
			if ls.writer != 0 || len(ls.readers) > 0 {
				st.Held++
			}
			st.Waiting += int64(len(ls.waiters))
		}
		sh.mu.Unlock()
	}
	return st
}

// LockAt acquires key in the given mode on behalf of txnID, whose current
// virtual time is now, blocking until the lock is granted, the wait times
// out or the wait would deadlock.  Re-acquiring a lock already held
// (including upgrading shared to exclusive when the transaction is the sole
// reader) succeeds.
//
// The wait deadline is virtual: it expires when the key's release frontier
// (the highest virtual time of any release of this key) moves more than the
// configured timeout past the frontier observed when the wait began, while
// the lock remains unavailable.  Deadlocks, where the frontier never moves,
// are caught by the waits-for graph instead: whenever the request blocks
// (and again on every wake-up) it records the transactions blocking it, and
// fails with ErrLockTimeout if that closes a cycle.
func (lm *LockManager) LockAt(now sim.Time, txnID uint64, key string, mode LockMode) error {
	if now < 0 {
		now = 0
	}
	sh := lm.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ls := sh.state(key)
	waited := false
	var deadline sim.Time
	for {
		holder := ls.writer == txnID || ls.readers[txnID] > 0
		// A newly arriving request yields to transactions that are already
		// waiting (simple fairness, so a hot lock cannot starve a waiter),
		// unless the transaction already holds the lock.
		barge := !holder && !waited && len(ls.waiters) > 0
		if !barge && grantable(ls, txnID, mode) {
			if mode == Exclusive {
				ls.writer = txnID
				delete(ls.readers, txnID) // upgrade consumes the shared hold
			} else {
				ls.readers[txnID]++
			}
			if waited {
				ls.stopWaiting(txnID)
				lm.graph.unblock(txnID)
			}
			return nil
		}
		var err error
		if !waited {
			waited = true
			sh.waits.Add(1)
			ls.waiters = append(ls.waiters, txnID)
			// Anchor the virtual deadline to the key's release frontier, not
			// just the waiter's own cursor: cursors of independent workers
			// drift apart, and a waiter behind the frontier must still be
			// given a full timeout of *future* virtual activity.
			deadline = max(now, ls.maxRelease).Add(lm.timeout)
		} else if ls.maxRelease > deadline {
			err = fmt.Errorf("%w: txn %d key %q", ErrLockTimeout, txnID, key)
		}
		if err == nil && lm.graph.block(txnID, ls.blockers(txnID, barge)) {
			err = fmt.Errorf("%w: deadlock: txn %d key %q", ErrLockTimeout, txnID, key)
		}
		if err != nil {
			ls.stopWaiting(txnID)
			lm.graph.unblock(txnID)
			// Requests that yielded to this one look again: no release may
			// ever come to wake them.
			ls.cond.Broadcast()
			sh.timeouts.Add(1)
			return err
		}
		ls.cond.Wait()
	}
}

// blockers lists the transactions txnID is waiting on: the key's other
// holders and, for a request yielding to earlier waiters, those waiters as
// well.  Caller holds the shard mutex.
func (ls *lockState) blockers(txnID uint64, yielding bool) []uint64 {
	var out []uint64
	if ls.writer != 0 && ls.writer != txnID {
		out = append(out, ls.writer)
	}
	for r := range ls.readers {
		if r != txnID {
			out = append(out, r)
		}
	}
	if yielding {
		for _, w := range ls.waiters {
			if w != txnID {
				out = append(out, w)
			}
		}
	}
	return out
}

// stopWaiting removes txnID from the key's waiters.  Caller holds the shard
// mutex.
func (ls *lockState) stopWaiting(txnID uint64) {
	if i := slices.Index(ls.waiters, txnID); i >= 0 {
		ls.waiters = slices.Delete(ls.waiters, i, i+1)
	}
}

// grantable reports whether txnID may take key in mode.  Caller holds the
// shard mutex.
func grantable(ls *lockState, txnID uint64, mode LockMode) bool {
	if mode == Shared {
		return ls.writer == 0 || ls.writer == txnID
	}
	// Exclusive: no other writer and no other readers.
	if ls.writer != 0 && ls.writer != txnID {
		return false
	}
	for r := range ls.readers {
		if r != txnID {
			return false
		}
	}
	return true
}

// ReleaseAllAt releases every lock held by txnID and advances each key's
// virtual release frontier to now, which is what drives waiters' virtual
// timeouts forward.
func (lm *LockManager) ReleaseAllAt(now sim.Time, txnID uint64, keys []string) {
	for _, key := range keys {
		sh := lm.shard(key)
		sh.mu.Lock()
		ls, ok := sh.locks[key]
		if !ok {
			sh.mu.Unlock()
			continue
		}
		// ReleaseAllAt is only called at commit/abort (strict two-phase
		// locking), so every hold the transaction has on the key is dropped
		// at once, however many times it re-acquired the lock.
		if ls.writer == txnID {
			ls.writer = 0
		}
		delete(ls.readers, txnID)
		if now > ls.maxRelease {
			ls.maxRelease = now
		}
		if len(ls.waiters) > 0 {
			lm.graph.released(txnID, ls.waiters)
			ls.cond.Broadcast()
		}
		sh.mu.Unlock()
	}
}

// State tracks a transaction's lifecycle.
type State int

// Transaction states.
const (
	Active State = iota
	Committed
	Aborted
)

// Manager creates transactions, hands out ids and coordinates the WAL.
type Manager struct {
	nextID  atomic.Uint64
	lm      *LockManager
	log     *wal.Log
	clock   *sim.Clock
	started atomic.Int64
	commits atomic.Int64
	aborts  atomic.Int64
}

// NewManager creates a transaction manager.  log may be nil (no logging) and
// clock may be nil (no global time publication).
func NewManager(lm *LockManager, log *wal.Log, clock *sim.Clock) *Manager {
	if lm == nil {
		lm = NewLockManager(0)
	}
	return &Manager{lm: lm, log: log, clock: clock}
}

// LockManager returns the shared lock manager.
func (m *Manager) LockManager() *LockManager { return m.lm }

// NextID returns the highest transaction id handed out so far (checkpoints
// persist it so recovery can seed a fresh manager past it).
func (m *Manager) NextID() uint64 { return m.nextID.Load() }

// SeedNextID raises the id counter so that future transactions receive ids
// strictly greater than next.  Recovery uses it to keep replayed transaction
// ids from being reissued.
func (m *Manager) SeedNextID(next uint64) {
	for {
		cur := m.nextID.Load()
		if cur >= next {
			return
		}
		if m.nextID.CompareAndSwap(cur, next) {
			return
		}
	}
}

// Started, Committed and Aborted return lifetime counters.
func (m *Manager) Started() int64   { return m.started.Load() }
func (m *Manager) Committed() int64 { return m.commits.Load() }
func (m *Manager) Aborted() int64   { return m.aborts.Load() }

// Txn is one transaction.  It is owned by a single goroutine (a TPC-C
// terminal); it is not safe for concurrent use.
type Txn struct {
	id     uint64
	mgr    *Manager
	cursor sim.Cursor
	state  State
	locks  []string // keys held, each once
	start  sim.Time
}

// Begin starts a transaction whose virtual clock begins at now.
func (m *Manager) Begin(now sim.Time) *Txn {
	id := m.nextID.Add(1)
	m.started.Add(1)
	t := &Txn{id: id, mgr: m, cursor: *sim.NewCursor(m.clock), state: Active, start: now}
	t.cursor.SetTo(now)
	if m.log != nil {
		_, _ = m.log.Append(wal.RecBegin, id, 0, nil)
	}
	return t
}

// ID returns the transaction id.
func (t *Txn) ID() uint64 { return t.id }

// Now returns the transaction's current virtual time.
func (t *Txn) Now() sim.Time { return t.cursor.Now() }

// AdvanceTo moves the transaction's virtual clock forward (after an I/O
// completed at that time).
func (t *Txn) AdvanceTo(when sim.Time) { t.cursor.AdvanceTo(when) }

// Charge adds CPU time to the transaction's virtual clock.
func (t *Txn) Charge(d time.Duration) { t.cursor.Advance(d) }

// ResponseTime returns the virtual time elapsed since Begin.
func (t *Txn) ResponseTime() time.Duration { return t.cursor.Now().Sub(t.start) }

// State returns the transaction state.
func (t *Txn) State() State { return t.state }

// Lock acquires key in the given mode and remembers it for release at
// commit/abort.  The wait timeout is virtual-time-deterministic (see
// LockManager.LockAt).
func (t *Txn) Lock(key string, mode LockMode) error {
	if t.state != Active {
		return ErrTxnDone
	}
	if err := t.mgr.lm.LockAt(t.cursor.Now(), t.id, key, mode); err != nil {
		return err
	}
	// A transaction holds a few dozen keys at most, so a linear search is
	// cheaper than a set.
	if !slices.Contains(t.locks, key) {
		t.locks = append(t.locks, key)
	}
	return nil
}

// Log appends a record to the WAL on behalf of the transaction.
func (t *Txn) Log(typ wal.RecordType, objectID uint32, payload []byte) {
	if t.mgr.log == nil || t.state != Active {
		return
	}
	_, _ = t.mgr.log.Append(typ, t.id, objectID, payload)
}

// Commit writes the commit record, forces the log (joining the group commit
// of any concurrent committers) and releases all locks.  It returns the
// transaction's final virtual time.
func (t *Txn) Commit() (sim.Time, error) {
	if t.state != Active {
		return t.cursor.Now(), ErrTxnDone
	}
	if t.mgr.log != nil {
		lsn, err := t.mgr.log.Append(wal.RecCommit, t.id, 0, nil)
		if err != nil {
			return t.cursor.Now(), err
		}
		done, err := t.mgr.log.Commit(t.cursor.Now(), lsn)
		if err != nil {
			return t.cursor.Now(), err
		}
		t.cursor.AdvanceTo(done)
	}
	t.state = Committed
	t.mgr.commits.Add(1)
	t.mgr.lm.ReleaseAllAt(t.cursor.Now(), t.id, t.locks)
	return t.cursor.Now(), nil
}

// Abort writes an abort record and releases all locks.  The engine's
// transactions are written to take locks before any modification, so abort
// is only used for logical aborts that happen before updates (e.g. the 1 %
// of TPC-C NewOrder transactions with an invalid item).
func (t *Txn) Abort() sim.Time {
	if t.state != Active {
		return t.cursor.Now()
	}
	if t.mgr.log != nil {
		_, _ = t.mgr.log.Append(wal.RecAbort, t.id, 0, nil)
	}
	t.state = Aborted
	t.mgr.aborts.Add(1)
	t.mgr.lm.ReleaseAllAt(t.cursor.Now(), t.id, t.locks)
	return t.cursor.Now()
}
