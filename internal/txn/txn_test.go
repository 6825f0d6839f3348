package txn

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"noftl/internal/core"
	"noftl/internal/flash"
	"noftl/internal/sim"
	"noftl/internal/wal"
)

func testWAL(t *testing.T) *wal.Log {
	t.Helper()
	cfg := flash.DefaultConfig()
	cfg.Geometry = flash.Geometry{
		Channels: 1, DiesPerChannel: 2, PlanesPerDie: 1,
		BlocksPerDie: 64, PagesPerBlock: 16, PageSize: 512,
	}
	dev, err := flash.NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mgr := core.NewManager(dev, core.DefaultOptions())
	return wal.New(mgr, core.Hint{ObjectID: 1}, 512)
}

func TestLockManagerSharedAndExclusive(t *testing.T) {
	lm := NewLockManager(time.Second)
	// Two readers coexist.
	if err := lm.LockAt(0, 1, "k", Shared); err != nil {
		t.Fatal(err)
	}
	if err := lm.LockAt(0, 2, "k", Shared); err != nil {
		t.Fatal(err)
	}
	// A writer must wait; with a short virtual budget it gives up once
	// releases of the key carry virtual time past the budget while the lock
	// stays unavailable.
	short := NewLockManager(50 * time.Millisecond)
	for _, id := range []uint64{1, 3, 5} {
		if err := short.LockAt(0, id, "x", Shared); err != nil {
			t.Fatal(err)
		}
	}
	errCh := lockAsync(short, 0, 2, "x", Exclusive)
	waitBlocked(t, short, 1)
	// Reader 3 leaves at 40 ms: still inside the writer's 50 ms budget.
	short.ReleaseAllAt(sim.Time(40*time.Millisecond), 3, []string{"x"})
	select {
	case err := <-errCh:
		t.Fatalf("timeout returned too early: %v", err)
	case <-time.After(5 * time.Millisecond):
	}
	// Reader 5 leaves at 60 ms while reader 1 still holds: budget spent.
	short.ReleaseAllAt(sim.Time(60*time.Millisecond), 5, []string{"x"})
	if err := <-errCh; !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("want ErrLockTimeout, got %v", err)
	}
	if short.Stats().Waits == 0 {
		t.Fatal("wait not counted")
	}
	// Releasing lets the writer in.
	short.ReleaseAllAt(sim.Time(60*time.Millisecond), 1, []string{"x"})
	if err := short.LockAt(sim.Time(60*time.Millisecond), 2, "x", Exclusive); err != nil {
		t.Fatalf("lock after release: %v", err)
	}
	// Re-acquiring an already-held lock succeeds, as does upgrading when the
	// transaction is the only reader.
	if err := lm.LockAt(0, 1, "k", Shared); err != nil {
		t.Fatal(err)
	}
	lm.ReleaseAllAt(0, 2, []string{"k"})
	if err := lm.LockAt(0, 1, "k", Exclusive); err != nil {
		t.Fatalf("upgrade failed: %v", err)
	}
	if err := lm.LockAt(0, 1, "k", Exclusive); err != nil {
		t.Fatalf("re-acquire failed: %v", err)
	}
}

// lockAsync requests key on behalf of txnID from a new goroutine and
// delivers the outcome on the returned channel.
func lockAsync(lm *LockManager, now sim.Time, txnID uint64, key string, mode LockMode) <-chan error {
	ch := make(chan error, 1)
	go func() { ch <- lm.LockAt(now, txnID, key, mode) }()
	return ch
}

// waitBlocked spins until n transactions are blocked in lm.  A request is
// counted as blocked only after it has recorded its waits-for edges, since
// both happen under the same shard mutex.  The deadline only bounds a
// broken test run.
func waitBlocked(t *testing.T, lm *LockManager, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for lm.Stats().Waiting != n {
		if time.Now().After(deadline) {
			t.Fatalf("%d transactions blocked, want %d", lm.Stats().Waiting, n)
		}
		runtime.Gosched()
	}
}

// granted waits for the outcome of an asynchronous request that must
// succeed.  The deadline only bounds a broken test run.
func granted(t *testing.T, ch <-chan error, who string) {
	t.Helper()
	select {
	case err := <-ch:
		if err != nil {
			t.Fatalf("%s: %v", who, err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("%s was never granted", who)
	}
}

func TestLockManagerBlocksThenGrants(t *testing.T) {
	lm := NewLockManager(2 * time.Second)
	if err := lm.LockAt(0, 1, "row", Exclusive); err != nil {
		t.Fatal(err)
	}
	acquired := make(chan error, 1)
	go func() {
		acquired <- lm.LockAt(0, 2, "row", Exclusive)
	}()
	select {
	case err := <-acquired:
		t.Fatalf("lock granted while held: %v", err)
	case <-time.After(30 * time.Millisecond):
	}
	lm.ReleaseAllAt(0, 1, []string{"row"})
	select {
	case err := <-acquired:
		if err != nil {
			t.Fatalf("lock not granted after release: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("waiter never woke up")
	}
}

func TestLockManagerConcurrentCounter(t *testing.T) {
	lm := NewLockManager(5 * time.Second)
	counter := 0
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if err := lm.LockAt(0, id, "counter", Exclusive); err != nil {
					t.Error(err)
					return
				}
				counter++
				lm.ReleaseAllAt(0, id, []string{"counter"})
			}
		}(uint64(w + 1))
	}
	wg.Wait()
	if counter != 1600 {
		t.Fatalf("counter = %d, want 1600 (lost updates)", counter)
	}
}

func TestTxnLifecycle(t *testing.T) {
	log := testWAL(t)
	m := NewManager(NewLockManager(time.Second), log, sim.NewClock())
	tx := m.Begin(0)
	if tx.ID() == 0 || tx.State() != Active {
		t.Fatal("begin state wrong")
	}
	if err := tx.Lock("W:1", Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := tx.Lock("W:1", Exclusive); err != nil { // idempotent
		t.Fatal(err)
	}
	tx.Log(wal.RecUpdate, 5, []byte("update W 1"))
	tx.Charge(100 * time.Microsecond)
	tx.AdvanceTo(tx.Now().Add(50 * time.Microsecond))
	done, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if done <= 0 || tx.State() != Committed {
		t.Fatalf("commit: %v state=%v", done, tx.State())
	}
	if tx.ResponseTime() <= 0 {
		t.Fatal("response time not accounted")
	}
	// Commit forces the log.
	if log.FlushedLSN() == 0 {
		t.Fatal("commit did not flush the WAL")
	}
	// Double commit / post-commit operations fail gracefully.
	if _, err := tx.Commit(); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("double commit: %v", err)
	}
	if err := tx.Lock("x", Shared); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("lock after commit: %v", err)
	}
	// Another transaction can take the released lock immediately.
	tx2 := m.Begin(done)
	if err := tx2.Lock("W:1", Exclusive); err != nil {
		t.Fatal(err)
	}
	_ = tx2.Abort()
	if tx2.State() != Aborted {
		t.Fatal("abort state wrong")
	}
	_ = tx2.Abort() // idempotent
	if m.Started() != 2 || m.Committed() != 1 || m.Aborted() != 1 {
		t.Fatalf("counters: started=%d committed=%d aborted=%d", m.Started(), m.Committed(), m.Aborted())
	}
	if m.LockManager() == nil {
		t.Fatal("lock manager accessor nil")
	}
}

func TestTxnWithoutWAL(t *testing.T) {
	m := NewManager(nil, nil, nil)
	tx := m.Begin(100)
	tx.Log(wal.RecUpdate, 1, nil) // no-op without a log
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentTransactionsSerializeOnLock(t *testing.T) {
	log := testWAL(t)
	m := NewManager(NewLockManager(5*time.Second), log, sim.NewClock())
	balance := 0
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				tx := m.Begin(0)
				if err := tx.Lock("account:1", Exclusive); err != nil {
					t.Error(err)
					return
				}
				balance++
				tx.Log(wal.RecUpdate, 1, []byte{1})
				if _, err := tx.Commit(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if balance != 400 {
		t.Fatalf("balance = %d, want 400", balance)
	}
	if m.Committed() != 400 {
		t.Fatalf("commits = %d", m.Committed())
	}
}

// TestLockVirtualTimeoutDeterministic checks that LockAt's timeout is driven
// by virtual time on the key, not by host speed: a waiter with a 1 ms virtual
// budget times out exactly when releases push the key's virtual frontier past
// its deadline, and survives any amount of wall-clock waiting short of that.
func TestLockVirtualTimeoutDeterministic(t *testing.T) {
	lm := NewLockManager(time.Millisecond) // 1 ms of virtual time

	if err := lm.LockAt(0, 1, "k", Exclusive); err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		// Waiter at virtual time 0: virtual deadline is 1 ms.
		errCh <- lm.LockAt(0, 2, "k", Exclusive)
	}()
	for lm.Stats().Waiting == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	// Holder releases at virtual time 0.5 ms and a third txn cycles the lock,
	// releasing at 0.9 ms: frontier < deadline, waiter 2 must simply win the
	// lock (it is granted on the release wake-up, not timed out).
	lm.ReleaseAllAt(sim.Time(500_000), 1, []string{"k"})
	if err := <-errCh; err != nil {
		t.Fatalf("waiter timed out before its virtual deadline: %v", err)
	}
	lm.ReleaseAllAt(sim.Time(900_000), 2, []string{"k"})

	// Now the deterministic timeout: holder takes the lock and only releases
	// at virtual time 2.1 ms, past the waiter's 0.9+1.0=1.9 ms deadline.
	if err := lm.LockAt(sim.Time(900_000), 3, "k", Exclusive); err != nil {
		t.Fatal(err)
	}
	go func() {
		errCh <- lm.LockAt(sim.Time(900_000), 4, "k", Shared)
	}()
	for lm.Stats().Waiting == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	// Another key's release must not wake-or-time-out the waiter on "k".
	lm.ReleaseAllAt(sim.Time(5_000_000), 9, []string{"other"})
	select {
	case err := <-errCh:
		t.Fatalf("waiter finished on unrelated release: %v", err)
	case <-time.After(2 * time.Millisecond):
	}
	// Holder 3 keeps the lock but a second waiter cycles a *shared* grant?
	// No: release by 3 at 2.1 ms grants the lock to waiter 4 (grant wins over
	// timeout when the lock became available on the same wake-up).
	lm.ReleaseAllAt(sim.Time(2_100_000), 3, []string{"k"})
	if err := <-errCh; err != nil {
		t.Fatalf("waiter should be granted on release even past deadline: %v", err)
	}
	lm.ReleaseAllAt(sim.Time(2_100_000), 4, []string{"k"})

	// True timeout: holder 5 keeps the lock while releases of the SAME key by
	// a shared cohort push the frontier past the waiter's deadline.
	if err := lm.LockAt(sim.Time(0), 5, "k2", Shared); err != nil {
		t.Fatal(err)
	}
	if err := lm.LockAt(sim.Time(0), 6, "k2", Shared); err != nil {
		t.Fatal(err)
	}
	go func() {
		errCh <- lm.LockAt(sim.Time(0), 7, "k2", Exclusive)
	}()
	for lm.Stats().Waiting == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	// Reader 6 releases at 2 ms; reader 5 still holds, so the writer cannot
	// be granted — and the frontier (2 ms) is past its 1 ms deadline.
	lm.ReleaseAllAt(sim.Time(2_000_000), 6, []string{"k2"})
	if err := <-errCh; !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("want ErrLockTimeout, got %v", err)
	}
	st := lm.Stats()
	if st.Timeouts != 1 {
		t.Fatalf("timeouts = %d, want 1", st.Timeouts)
	}
	if st.Waits < 3 {
		t.Fatalf("waits = %d, want >= 3", st.Waits)
	}
}

// TestLockManagerShardedStress hammers the sharded lock table from many
// goroutines over many keys, mixing shared and exclusive modes, upgrades and
// releases.  Run with -race this exercises the per-shard mutexes.
func TestLockManagerShardedStress(t *testing.T) {
	lm := NewLockManager(200 * time.Millisecond)
	const workers = 8
	const rounds = 300
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = string(rune('a'+i%26)) + string(rune('0'+i/26))
	}
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			r := sim.NewRand(id + 1)
			now := sim.Time(0)
			for i := 0; i < rounds; i++ {
				held := make([]string, 0, 4)
				// Take up to 3 locks in ascending key order (no deadlocks).
				lo := r.Intn(len(keys) - 3)
				for j := lo; j < lo+1+r.Intn(3); j++ {
					mode := Shared
					if r.Intn(2) == 0 {
						mode = Exclusive
					}
					if err := lm.LockAt(now, id+1, keys[j], mode); err != nil {
						errCh <- err
						return
					}
					held = append(held, keys[j])
				}
				now = now.Add(sim.Duration(r.Intn(1000)) + 1)
				lm.ReleaseAllAt(now, id+1, held)
			}
		}(uint64(w))
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	st := lm.Stats()
	if st.Held != 0 || st.Waiting != 0 {
		t.Fatalf("locks leaked: %+v", st)
	}
	if len(st.ShardWaits) != lockShards {
		t.Fatalf("shard wait vector has %d entries, want %d", len(st.ShardWaits), lockShards)
	}
	var shardSum int64
	for _, n := range st.ShardWaits {
		shardSum += n
	}
	if shardSum != st.Waits {
		t.Fatalf("shard waits sum %d != total waits %d", shardSum, st.Waits)
	}
}

// TestLockDeadlockDetected builds true waits-for cycles.  In each, the
// request that closes the cycle fails at once with ErrLockTimeout: nothing
// is released and no virtual or wall-clock deadline passes (the budget is an
// hour of virtual time and the frontier never moves).  The other waiters
// keep waiting, and the survivor is granted once the victim releases.
func TestLockDeadlockDetected(t *testing.T) {
	setup := func(t *testing.T, holds ...any) *LockManager {
		t.Helper()
		lm := NewLockManager(time.Hour)
		for i := 0; i < len(holds); i += 3 {
			if err := lm.LockAt(0, holds[i].(uint64), holds[i+1].(string), holds[i+2].(LockMode)); err != nil {
				t.Fatal(err)
			}
		}
		return lm
	}
	victim := func(t *testing.T, lm *LockManager, txnID uint64, key string, mode LockMode, blocked int64) {
		t.Helper()
		var err error
		select {
		case err = <-lockAsync(lm, 0, txnID, key, mode):
		case <-time.After(10 * time.Second):
			t.Fatalf("txn %d: deadlock not detected", txnID)
		}
		if !errors.Is(err, ErrLockTimeout) || !strings.Contains(err.Error(), "deadlock") {
			t.Fatalf("txn %d: want deadlock ErrLockTimeout, got %v", txnID, err)
		}
		st := lm.Stats()
		if st.Timeouts != 1 || st.Waiting != blocked {
			t.Fatalf("after the victim: timeouts=%d waiting=%d, want 1 and %d", st.Timeouts, st.Waiting, blocked)
		}
	}

	t.Run("two keys crossing", func(t *testing.T) {
		lm := setup(t, uint64(1), "a", Exclusive, uint64(2), "b", Exclusive)
		survivor := lockAsync(lm, 0, 1, "b", Exclusive)
		waitBlocked(t, lm, 1)
		victim(t, lm, 2, "a", Exclusive, 1)
		lm.ReleaseAllAt(0, 2, []string{"b"})
		granted(t, survivor, "txn 1")
	})

	t.Run("three-transaction ring", func(t *testing.T) {
		lm := setup(t, uint64(1), "a", Exclusive, uint64(2), "b", Exclusive, uint64(3), "c", Exclusive)
		first := lockAsync(lm, 0, 1, "b", Exclusive)
		waitBlocked(t, lm, 1)
		second := lockAsync(lm, 0, 2, "c", Exclusive)
		waitBlocked(t, lm, 2)
		victim(t, lm, 3, "a", Exclusive, 2)
		lm.ReleaseAllAt(0, 3, []string{"c"})
		granted(t, second, "txn 2")
		lm.ReleaseAllAt(0, 2, []string{"b", "c"})
		granted(t, first, "txn 1")
	})

	t.Run("shared holders both upgrade", func(t *testing.T) {
		lm := setup(t, uint64(1), "k", Shared, uint64(2), "k", Shared)
		survivor := lockAsync(lm, 0, 1, "k", Exclusive)
		waitBlocked(t, lm, 1)
		victim(t, lm, 2, "k", Exclusive, 1)
		lm.ReleaseAllAt(0, 2, []string{"k"})
		granted(t, survivor, "txn 1")
	})
}

// TestLockWaitChainIsNoDeadlock checks that a chain of waits without a
// cycle is left alone: txn 3 waits for txn 2, which waits for txn 1, and
// all three complete once the chain unwinds.
func TestLockWaitChainIsNoDeadlock(t *testing.T) {
	lm := NewLockManager(time.Hour)
	if err := lm.LockAt(0, 1, "a", Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := lm.LockAt(0, 2, "b", Exclusive); err != nil {
		t.Fatal(err)
	}
	second := lockAsync(lm, 0, 2, "a", Exclusive)
	waitBlocked(t, lm, 1)
	third := lockAsync(lm, 0, 3, "b", Shared)
	waitBlocked(t, lm, 2)
	// The head of the chain can still take new locks.
	if err := lm.LockAt(0, 1, "c", Exclusive); err != nil {
		t.Fatal(err)
	}
	lm.ReleaseAllAt(0, 1, []string{"a", "c"})
	granted(t, second, "txn 2")
	lm.ReleaseAllAt(0, 2, []string{"a", "b"})
	granted(t, third, "txn 3")
	lm.ReleaseAllAt(0, 3, []string{"b"})
	if st := lm.Stats(); st.Timeouts != 0 || st.Waits != 2 || st.Held != 0 {
		t.Fatalf("chain without a cycle: %+v", st)
	}
}

// TestTxnAllocs pins the allocations of a transaction that locks two keys
// and commits through the WAL: the Txn itself and its lock list.  The
// cursor lives in the Txn, and the lock list needs no set beside it.
func TestTxnAllocs(t *testing.T) {
	m := NewManager(NewLockManager(time.Second), testWAL(t), sim.NewClock())
	keys := []string{"W:1", "D:1:3"}
	now := sim.Time(0)
	round := func() {
		tx := m.Begin(now)
		for _, k := range keys {
			if err := tx.Lock(k, Exclusive); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Lock(keys[0], Exclusive); err != nil { // already held
			t.Fatal(err)
		}
		done, err := tx.Commit()
		if err != nil {
			t.Fatal(err)
		}
		now = done
	}
	for i := 0; i < 5000; i++ {
		round()
	}
	const want = 3 // the Txn, then the lock list at one and at two keys
	if allocs := testing.AllocsPerRun(1000, round); allocs != want {
		t.Fatalf("begin + 2 locks + commit allocated %.1f times, want %d", allocs, want)
	}
}
