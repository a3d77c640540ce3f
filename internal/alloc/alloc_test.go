package alloc

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBitmapAllocFree(t *testing.T) {
	b := NewBitmap(64, 1024)
	if b.FreeBlocks() != 64 {
		t.Fatalf("fresh bitmap free = %d", b.FreeBlocks())
	}
	blk, d, err := b.Alloc(4)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len <= 0 {
		t.Fatal("alloc must dirty the bitmap")
	}
	for i := blk; i < blk+4; i++ {
		if !b.IsAllocated(i) {
			t.Fatalf("block %d not marked", i)
		}
	}
	if _, err := b.Free(blk, 4); err != nil {
		t.Fatal(err)
	}
	if b.FreeBlocks() != 64 {
		t.Fatal("free did not return blocks")
	}
}

func TestBitmapDoubleFree(t *testing.T) {
	b := NewBitmap(8, 64)
	blk, _, _ := b.Alloc(1)
	if _, err := b.Free(blk, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Free(blk, 1); err == nil {
		t.Fatal("double free must be detected")
	}
}

func TestBitmapExhaustion(t *testing.T) {
	b := NewBitmap(4, 64)
	for i := 0; i < 4; i++ {
		if _, _, err := b.Alloc(1); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := b.Alloc(1); err != ErrNoSpace {
		t.Fatalf("want ErrNoSpace, got %v", err)
	}
}

func TestBitmapContiguousAfterFragmentation(t *testing.T) {
	b := NewBitmap(16, 64)
	var blocks []int
	for i := 0; i < 16; i++ {
		blk, _, _ := b.Alloc(1)
		blocks = append(blocks, blk)
	}
	// Free every other block: no run of 2 exists.
	for i := 0; i < 16; i += 2 {
		_, _ = b.Free(blocks[i], 1)
	}
	if _, _, err := b.Alloc(2); err != ErrNoSpace {
		t.Fatalf("fragmented alloc of 2 must fail, got %v", err)
	}
	// Free a neighbour: now a run of 2 exists.
	_, _ = b.Free(blocks[1], 1)
	if _, _, err := b.Alloc(2); err != nil {
		t.Fatalf("contiguous alloc should succeed: %v", err)
	}
}

func TestBitmapPersistReload(t *testing.T) {
	b := NewBitmap(32, 128)
	b1, _, _ := b.Alloc(3)
	b2, _, _ := b.Alloc(1)
	img := append([]byte(nil), b.Bytes()...)
	r, err := LoadBitmap(img, 32, 128)
	if err != nil {
		t.Fatal(err)
	}
	if r.FreeBlocks() != 32-4 {
		t.Fatalf("reloaded free = %d, want 28", r.FreeBlocks())
	}
	for i := b1; i < b1+3; i++ {
		if !r.IsAllocated(i) {
			t.Fatal("reloaded bitmap lost allocation")
		}
	}
	if !r.IsAllocated(b2) {
		t.Fatal("reloaded bitmap lost allocation")
	}
}

// Property: random alloc/free sequences never hand out overlapping blocks
// and free count stays consistent.
func TestQuickBitmapNoOverlap(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := NewBitmap(128, 64)
		owned := map[int]int{} // start → len
		for i := 0; i < 300; i++ {
			if rng.Intn(2) == 0 {
				n := 1 + rng.Intn(4)
				blk, _, err := b.Alloc(n)
				if err != nil {
					continue
				}
				for s, l := range owned {
					if blk < s+l && s < blk+n {
						return false // overlap
					}
				}
				owned[blk] = n
			} else if len(owned) > 0 {
				for s, l := range owned {
					if _, err := b.Free(s, l); err != nil {
						return false
					}
					delete(owned, s)
					break
				}
			}
		}
		used := 0
		for _, l := range owned {
			used += l
		}
		return b.FreeBlocks() == 128-used
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// fakeSource is an in-memory SlabSource with alignment guarantees.
type fakeSource struct {
	next   uint64
	allocs map[uint64]int
	frees  int
}

func newFakeSource() *fakeSource {
	return &fakeSource{next: 1 << 20, allocs: map[uint64]int{}}
}

func (f *fakeSource) AllocSlab(n int) (uint64, error) {
	a := (f.next + uint64(n) - 1) &^ (uint64(n) - 1)
	f.next = a + uint64(n)
	f.allocs[a] = n
	return a, nil
}

func (f *fakeSource) FreeSlab(addr uint64, n int) error {
	if f.allocs[addr] != n {
		return ErrNoSpace
	}
	delete(f.allocs, addr)
	f.frees++
	return nil
}

func TestTwoTierBasic(t *testing.T) {
	src := newFakeSource()
	tt := NewTwoTier(src, 4096)
	a1, err := tt.Alloc(48) // class 64
	if err != nil {
		t.Fatal(err)
	}
	a2, _ := tt.Alloc(48)
	if a1 == a2 {
		t.Fatal("duplicate allocation")
	}
	if len(src.allocs) != 1 {
		t.Fatalf("two small allocs must share one slab, got %d slabs", len(src.allocs))
	}
	if err := tt.Free(a1, 48); err != nil {
		t.Fatal(err)
	}
	if err := tt.Free(a1, 48); err == nil {
		t.Fatal("double free must fail")
	}
	if err := tt.Free(a2, 48); err != nil {
		t.Fatal(err)
	}
}

func TestTwoTierLargeBypass(t *testing.T) {
	src := newFakeSource()
	tt := NewTwoTier(src, 4096)
	a, err := tt.Alloc(10000) // > largest class → whole slabs
	if err != nil {
		t.Fatal(err)
	}
	if src.allocs[a] != 12288 {
		t.Fatalf("large alloc rounded to %d, want 12288", src.allocs[a])
	}
	if err := tt.Free(a, 10000); err != nil {
		t.Fatal(err)
	}
}

func TestTwoTierReclaim(t *testing.T) {
	src := newFakeSource()
	tt := NewTwoTier(src, 4096)
	// Fill several slabs of one class, then free everything: surplus
	// empty slabs must flow back to the source.
	var addrs []uint64
	for i := 0; i < 4096/64*5; i++ {
		a, err := tt.Alloc(64)
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, a)
	}
	if len(src.allocs) != 5 {
		t.Fatalf("expected 5 slabs, got %d", len(src.allocs))
	}
	for _, a := range addrs {
		if err := tt.Free(a, 64); err != nil {
			t.Fatal(err)
		}
	}
	if src.frees < 3 {
		t.Fatalf("reclaim must return surplus empty slabs, freed %d", src.frees)
	}
	if err := tt.ReclaimAll(); err != nil {
		t.Fatal(err)
	}
	if len(src.allocs) != 0 {
		t.Fatalf("ReclaimAll left %d slabs", len(src.allocs))
	}
}

func TestTwoTierClassSeparation(t *testing.T) {
	src := newFakeSource()
	tt := NewTwoTier(src, 4096)
	small, _ := tt.Alloc(32)
	big, _ := tt.Alloc(2048)
	if small == big {
		t.Fatal("classes must not share blocks")
	}
	if err := tt.Free(small, 32); err != nil {
		t.Fatal(err)
	}
	if err := tt.Free(big, 2048); err != nil {
		t.Fatal(err)
	}
}

// Property: two-tier never returns overlapping live ranges.
func TestQuickTwoTierNoOverlap(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tt := NewTwoTier(newFakeSource(), 4096)
		type rangeT struct{ a, n uint64 }
		var live []rangeT
		for i := 0; i < 200; i++ {
			if rng.Intn(3) > 0 {
				n := 1 + rng.Intn(3000)
				a, err := tt.Alloc(n)
				if err != nil {
					return false
				}
				for _, r := range live {
					if a < r.a+r.n && r.a < a+uint64(n) {
						return false
					}
				}
				live = append(live, rangeT{a, uint64(n)})
			} else if len(live) > 0 {
				i := rng.Intn(len(live))
				if err := tt.Free(live[i].a, int(live[i].n)); err != nil {
					return false
				}
				live = append(live[:i], live[i+1:]...)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestTwoTierWarmSlabAllocates0: on a slab that has blocks both in use and
// free, an Alloc/Free pair is bookkeeping in place — the class is found in
// the allocator's own table, not in a list of sizes built per call.
func TestTwoTierWarmSlabAllocates0(t *testing.T) {
	tt := NewTwoTier(newFakeSource(), 4096)
	if _, err := tt.Alloc(520); err != nil { // keeps the slab partial throughout
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		a, err := tt.Alloc(520)
		if err == nil {
			err = tt.Free(a, 520)
		}
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("an Alloc/Free pair on a warm slab allocates %.1f times, want 0", allocs)
	}
}
