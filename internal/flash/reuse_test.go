package flash

import (
	"bytes"
	"errors"
	"testing"
)

// fillBlock programs every page of b with a page filled with fill+page.
func fillBlock(t testing.TB, d *Device, b BlockAddr, fill byte) {
	t.Helper()
	for p := 0; p < d.geo.PagesPerBlock; p++ {
		data := pageData(d.geo.PageSize, fill+byte(p))
		if _, err := d.ProgramPage(0, Addr{Die: b.Die, Block: b.Block, Page: p}, data, PageMeta{LPN: uint64(p)}); err != nil {
			t.Fatal(err)
		}
	}
}

func eraseBlock(t testing.TB, d *Device, b BlockAddr) {
	t.Helper()
	if _, err := d.EraseBlock(0, b); err != nil {
		t.Fatal(err)
	}
}

// TestReprogrammedPageReadsOnlyNewBytes programs a block, erases it and
// programs it again, so the new pages land on the erased pages' images.
func TestReprogrammedPageReadsOnlyNewBytes(t *testing.T) {
	cfg := testConfig()
	d := newTestDevice(t, cfg)
	b := BlockAddr{Die: 1, Block: 2}
	fillBlock(t, d, b, 0xA0)
	eraseBlock(t, d, b)

	addr := Addr{Die: 1, Block: 2, Page: 0}
	if _, _, _, err := d.ReadPage(0, addr, nil); !errors.Is(err, ErrReadErased) {
		t.Fatalf("read of an erased page: want ErrReadErased, got %v", err)
	}
	want := pageData(cfg.Geometry.PageSize, 0x11)
	if _, err := d.ProgramPage(0, addr, want, PageMeta{LPN: 1}); err != nil {
		t.Fatal(err)
	}
	got, _, _, err := d.ReadPage(0, addr, nil)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("reprogrammed page reads %x..., want %x... (err %v)", got[:4], want[:4], err)
	}
	// A program without a payload must not expose an erased page's image.
	next := Addr{Die: 1, Block: 2, Page: 1}
	if _, err := d.ProgramPage(0, next, nil, PageMeta{LPN: 2}); err != nil {
		t.Fatal(err)
	}
	if got, _, _, err := d.ReadPage(0, next, nil); err != nil || got != nil {
		t.Fatalf("payload-less page read back %d bytes (err %v), want none", len(got), err)
	}
	// The erased pages' images are not reachable through reads either.
	if _, _, _, err := d.ReadPage(0, Addr{Die: 1, Block: 2, Page: 2}, nil); !errors.Is(err, ErrReadErased) {
		t.Fatalf("read of an erased page: want ErrReadErased, got %v", err)
	}
}

// TestTornProgramOnReusedImageZeroesSuffix tears a program whose image is a
// recycled one still holding an erased page's bytes.
func TestTornProgramOnReusedImageZeroesSuffix(t *testing.T) {
	cfg := testConfig()
	d := newTestDevice(t, cfg)
	b := BlockAddr{Die: 0, Block: 3}
	fillBlock(t, d, b, 0xF0)
	eraseBlock(t, d, b)

	const torn = 100
	d.Arm(FaultPlan{CrashAfterOps: 1, TornTailBytes: torn})
	addr := Addr{Die: 0, Block: 3, Page: 0}
	data := pageData(cfg.Geometry.PageSize, 0x22)
	if _, err := d.ProgramPage(0, addr, data, PageMeta{LPN: 4}); !errors.Is(err, ErrCrashed) {
		t.Fatalf("want ErrCrashed, got %v", err)
	}
	d.Revive()
	got, _, _, err := d.ReadPage(0, addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	cut := cfg.Geometry.PageSize - torn
	if !bytes.Equal(got[:cut], data[:cut]) {
		t.Fatal("torn page lost its written prefix")
	}
	if !bytes.Equal(got[cut:], make([]byte, torn)) {
		t.Fatalf("torn page suffix is not zero: %x", got[cut:cut+8])
	}
}

// TestCorruptReusedImageTouchesOnlyItsPage corrupts a page whose image was
// recycled and checks every other stored page of the die.
func TestCorruptReusedImageTouchesOnlyItsPage(t *testing.T) {
	cfg := testConfig()
	d := newTestDevice(t, cfg)
	b0, b1 := BlockAddr{Die: 2, Block: 0}, BlockAddr{Die: 2, Block: 1}
	fillBlock(t, d, b0, 0x10)
	fillBlock(t, d, b1, 0x20)
	eraseBlock(t, d, b0)
	fillBlock(t, d, b0, 0x30)
	// Copybacks take recycled images too.
	b2 := BlockAddr{Die: 2, Block: 2}
	eraseBlock(t, d, b1)
	for p := 0; p < cfg.Geometry.PagesPerBlock; p++ {
		if _, _, err := d.Copyback(0, Addr{Die: 2, Block: 0, Page: p}, Addr{Die: 2, Block: 2, Page: p}); err != nil {
			t.Fatal(err)
		}
	}

	victim := Addr{Die: 2, Block: 0, Page: 1}
	if err := d.CorruptPage(victim, 0, 8, 0xFF); err != nil {
		t.Fatal(err)
	}
	for _, b := range []BlockAddr{b0, b2} {
		for p := 0; p < cfg.Geometry.PagesPerBlock; p++ {
			addr := Addr{Die: b.Die, Block: b.Block, Page: p}
			got, _, _, err := d.ReadPage(0, addr, nil)
			if err != nil {
				t.Fatal(err)
			}
			want := pageData(cfg.Geometry.PageSize, 0x30+byte(p))
			if addr == victim {
				for i := 0; i < 8; i++ {
					want[i] ^= 0xFF
				}
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("page %v reads %x..., want %x...", addr, got[:8], want[:8])
			}
		}
	}
}

// TestProgramCopybackAllocs pins the steady state of the program path: once
// an erase has returned page images to the die, programs and copybacks
// reuse them and allocate nothing.
func TestProgramCopybackAllocs(t *testing.T) {
	cfg := testConfig()
	d := newTestDevice(t, cfg)
	src, dst := BlockAddr{Die: 0, Block: 0}, BlockAddr{Die: 0, Block: 1}
	data := pageData(cfg.Geometry.PageSize, 0x5A)
	cycle := func() {
		for p := 0; p < cfg.Geometry.PagesPerBlock; p++ {
			s := Addr{Die: 0, Block: src.Block, Page: p}
			if _, err := d.ProgramPage(0, s, data, PageMeta{LPN: uint64(p)}); err != nil {
				t.Fatal(err)
			}
			if _, _, err := d.Copyback(0, s, Addr{Die: 0, Block: dst.Block, Page: p}); err != nil {
				t.Fatal(err)
			}
		}
		eraseBlock(t, d, src)
		eraseBlock(t, d, dst)
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("program/copyback/erase cycle allocated %.1f times, want 0", allocs)
	}
}

// BenchmarkFlashProgramErase programs one page per op and erases the block
// each time it fills.
func BenchmarkFlashProgramErase(b *testing.B) {
	d := newTestDevice(b, DefaultConfig())
	data := pageData(d.geo.PageSize, 0x5A)
	blk := BlockAddr{Die: 0, Block: 0}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := i % d.geo.PagesPerBlock
		if _, err := d.ProgramPage(0, Addr{Die: 0, Block: 0, Page: p}, data, PageMeta{LPN: uint64(i)}); err != nil {
			b.Fatal(err)
		}
		if p == d.geo.PagesPerBlock-1 {
			eraseBlock(b, d, blk)
		}
	}
}
