package buffer

import (
	"errors"
	"sync"
	"testing"

	"noftl/internal/core"
	"noftl/internal/sim"
)

func TestAutoShards(t *testing.T) {
	cases := []struct{ frames, want int }{
		{2, 1}, {32, 1}, {63, 1}, {64, 1}, {128, 2}, {256, 4},
		{512, 8}, {1024, 16}, {2048, 16}, {100000, 16},
	}
	for _, c := range cases {
		if got := autoShards(c.frames); got != c.want {
			t.Errorf("autoShards(%d) = %d, want %d", c.frames, got, c.want)
		}
	}
}

func TestPoolShardOverride(t *testing.T) {
	be := newMemBackend(128)
	p := New(be, 32, 128, nil)
	if got := p.Stats().Shards; got != 1 {
		t.Fatalf("auto shards for 32 frames = %d, want 1", got)
	}
	p.Configure(Options{Shards: 8})
	st := p.Stats()
	if st.Shards != 8 {
		t.Fatalf("shards after Configure = %d, want 8", st.Shards)
	}
	if st.Frames != 32 {
		t.Fatalf("frames after reshard = %d, want 32", st.Frames)
	}
	// A shard override larger than frames/2 is clamped.
	p2 := New(be, 8, 128, nil)
	p2.Configure(Options{Shards: 100})
	if got := p2.Stats().Shards; got != 4 {
		t.Fatalf("clamped shards = %d, want 4", got)
	}
	// Resharding after traffic is inert.
	h, _, err := p.NewPage(0, 1, core.Hint{})
	if err != nil {
		t.Fatal(err)
	}
	h.Release()
	p.Configure(Options{Shards: 2})
	if got := p.Stats().Shards; got != 8 {
		t.Fatalf("reshard after traffic changed shards to %d", got)
	}
}

// TestPoolShardedEvictionUnderContention drives many goroutines through a
// multi-shard pool far smaller than the page working set, so every shard
// constantly evicts (including dirty write-backs) while other workers fetch,
// modify and flush.  Run under -race this exercises the shard mutex / frame
// latch interplay of the sharded CLOCK.
func TestPoolShardedEvictionUnderContention(t *testing.T) {
	be := newMemBatchBackend(128)
	const pages = 256
	be.seed(pages)
	p := New(be, 64, 128, nil)
	p.Configure(Options{Shards: 8, GroupWriteBack: true})
	if got := p.Stats().Shards; got != 8 {
		t.Fatalf("shards = %d, want 8", got)
	}

	const workers = 8
	const opsPerWorker = 2000
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			r := sim.NewRand(uint64(seed + 1))
			now := sim.Time(0)
			for i := 0; i < opsPerWorker; i++ {
				switch r.Intn(10) {
				case 0: // occasional batched fetch
					lo := core.LPN(r.Intn(pages-8) + 1)
					lpns := []core.LPN{lo, lo + 1, lo + 2, lo + 3}
					hs, done, err := p.FetchMany(now, lpns, core.Hint{})
					if err != nil {
						errCh <- err
						return
					}
					now = done
					for _, h := range hs {
						h.RLock()
						_ = h.Data()[0]
						h.RUnlock()
						h.Release()
					}
				case 1: // background-flusher style group write-back
					if _, done, err := p.FlushSome(now, 8); err != nil {
						errCh <- err
						return
					} else {
						now = done
					}
				default:
					lpn := core.LPN(r.Intn(pages) + 1)
					h, done, err := p.Fetch(now, lpn, core.Hint{})
					if err != nil {
						errCh <- err
						return
					}
					now = done
					h.Lock()
					h.Data()[1]++
					h.MarkDirty()
					h.Unlock()
					h.Release()
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if _, err := p.FlushAll(0); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Evictions == 0 || st.Writebacks == 0 {
		t.Fatalf("contention run did not evict/write back: %+v", st)
	}
	if st.Dirty != 0 {
		t.Fatalf("dirty pages remain after FlushAll: %d", st.Dirty)
	}
	// No pins may leak: every page must be evictable now.
	for i := 1; i <= pages; i++ {
		p.Drop(core.LPN(i))
	}
	if got := p.Stats().Resident; got != 0 {
		t.Fatalf("leaked pins kept %d pages resident after Drop of everything", got)
	}
}

// TestPoolBorrowsFrameFromOtherShard pins every frame a shard owns and then
// fetches one more of its pages: the frame comes from another shard, and
// ErrPoolFull is left for a pool whose every frame is pinned.
func TestPoolBorrowsFrameFromOtherShard(t *testing.T) {
	be := newMemBackend(128)
	p := New(be, 8, 128, nil)
	p.Configure(Options{Shards: 2})
	hot := p.shards[0]
	var hotLPNs, coldLPNs []core.LPN
	for lpn := core.LPN(1); len(hotLPNs) < 6 || len(coldLPNs) < 3; lpn++ {
		if p.shardOf(lpn) == hot {
			hotLPNs = append(hotLPNs, lpn)
		} else {
			coldLPNs = append(coldLPNs, lpn)
		}
	}
	var pinned []*Handle
	pin := func(lpn core.LPN) error {
		h, _, err := p.NewPage(0, lpn, core.Hint{})
		if err == nil {
			pinned = append(pinned, h)
		}
		return err
	}
	// One cold page is resident but unpinned, so it is the one evicted.
	if err := pin(coldLPNs[0]); err != nil {
		t.Fatal(err)
	}
	pinned[0].Release()
	pinned = pinned[:0]
	for _, lpn := range hotLPNs[:4] {
		if err := pin(lpn); err != nil {
			t.Fatal(err)
		}
	}
	for _, lpn := range hotLPNs[4:6] {
		if err := pin(lpn); err != nil {
			t.Fatalf("fetch into a fully pinned shard: %v", err)
		}
	}
	if got := len(hot.frames); got != 6 {
		t.Fatalf("hot shard has %d frames, want 6", got)
	}
	for _, lpn := range coldLPNs[1:3] {
		if err := pin(lpn); err != nil {
			t.Fatal(err)
		}
	}
	if st := p.Stats(); st.Frames != 8 || st.Resident != 8 {
		t.Fatalf("frames %d resident %d, want 8 and 8", st.Frames, st.Resident)
	}
	// Every frame is pinned now; the cold shard keeps one frame.
	if _, _, err := p.Fetch(0, hotLPNs[0]+1000, core.Hint{}); !errors.Is(err, ErrPoolFull) {
		t.Fatalf("fetch with every frame pinned: want ErrPoolFull, got %v", err)
	}
	for _, h := range pinned {
		h.RLock()
		lpn := h.LPN()
		h.RUnlock()
		h.Release()
		if h2, _, err := p.Fetch(0, lpn, core.Hint{}); err != nil {
			t.Fatalf("page %d lost after borrowing: %v", lpn, err)
		} else {
			h2.Release()
		}
	}
}
