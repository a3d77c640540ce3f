package alloc

import (
	"fmt"
	"sort"
)

// SlabSource provides fixed-size slabs of back-end NVM; in the full system
// it is the RPC path to the back-end allocator (rnvm_malloc/rnvm_free).
type SlabSource interface {
	// AllocSlab returns the global address of a fresh slab of n bytes,
	// aligned to n.
	AllocSlab(n int) (uint64, error)
	// FreeSlab returns a slab to the back-end.
	FreeSlab(addr uint64, n int) error
}

// classSizes are the block sizes the front-end carves slabs into; Alloc
// picks the smallest class that fits (best fit).
var classSizes = []int{32, 64, 128, 256, 512, 1024, 2048}

// slab is one back-end slab subdivided into equal blocks of one class.
type slab struct {
	base   uint64
	class  int // index into the allocator's class table
	free   []uint32
	inUse  int
	blocks int
}

type classState struct {
	size    int
	partial map[uint64]*slab // has both free and used blocks
	empty   []*slab          // fully free, kept for reuse then reclaimed
}

// TwoTier is the front-end allocator of §5.2. Not safe for concurrent
// use: each front-end actor owns one.
type TwoTier struct {
	src       SlabSource
	slabSize  int
	classes   []classState
	byBase    map[uint64]*slab // every live slab, keyed by base address
	maxEmpty  int              // empty slabs retained per class before reclaim
	allocated int64
}

// NewTwoTier builds a front-end allocator over src handing out slabs of
// slabSize bytes (a power of two, at least twice the largest class).
func NewTwoTier(src SlabSource, slabSize int) *TwoTier {
	if slabSize&(slabSize-1) != 0 {
		panic("alloc: slab size must be a power of two")
	}
	sizes := make([]int, 0, len(classSizes))
	for _, s := range classSizes {
		if s <= slabSize/2 {
			sizes = append(sizes, s)
		}
	}
	if len(sizes) == 0 {
		panic(fmt.Sprintf("alloc: slab size %d too small for any class", slabSize))
	}
	t := &TwoTier{
		src:      src,
		slabSize: slabSize,
		byBase:   make(map[uint64]*slab),
		maxEmpty: 2,
	}
	for i, s := range sizes {
		_ = i
		t.classes = append(t.classes, classState{size: s, partial: make(map[uint64]*slab)})
	}
	return t
}

// Allocated reports the bytes currently handed out (by class size).
func (t *TwoTier) Allocated() int64 { return t.allocated }

// classFor returns the index of the smallest class >= size, or -1 when the
// request is larger than every class (then it goes straight to the source).
func (t *TwoTier) classFor(size int) int {
	i := sort.Search(len(t.classes), func(i int) bool { return t.classes[i].size >= size })
	if i == len(t.classes) {
		return -1
	}
	return i
}

// Alloc returns the global NVM address of size bytes. Requests larger
// than the largest class bypass the slab layer and allocate whole slabs
// (rounded up) from the source, as the paper prescribes.
func (t *TwoTier) Alloc(size int) (uint64, error) {
	if size <= 0 {
		return 0, fmt.Errorf("alloc: bad size %d", size)
	}
	ci := t.classFor(size)
	if ci < 0 {
		n := (size + t.slabSize - 1) / t.slabSize * t.slabSize
		return t.src.AllocSlab(n)
	}
	cs := &t.classes[ci]
	var sl *slab
	for _, s := range cs.partial {
		sl = s
		break
	}
	if sl == nil {
		if n := len(cs.empty); n > 0 {
			sl = cs.empty[n-1]
			cs.empty = cs.empty[:n-1]
			cs.partial[sl.base] = sl
		}
	}
	if sl == nil {
		base, err := t.src.AllocSlab(t.slabSize)
		if err != nil {
			return 0, err
		}
		blocks := t.slabSize / cs.size
		sl = &slab{base: base, class: ci, blocks: blocks, free: make([]uint32, 0, blocks)}
		for b := blocks - 1; b >= 0; b-- {
			sl.free = append(sl.free, uint32(b))
		}
		t.byBase[base] = sl
		cs.partial[base] = sl
	}
	idx := sl.free[len(sl.free)-1]
	sl.free = sl.free[:len(sl.free)-1]
	sl.inUse++
	if len(sl.free) == 0 {
		delete(cs.partial, sl.base) // full slabs leave the partial list
	}
	t.allocated += int64(cs.size)
	return sl.base + uint64(idx)*uint64(cs.size), nil
}

// Free returns size bytes at addr. The size must match the Alloc request
// (as with C-style slab allocators, the caller tracks sizes; every
// data-structure node in this codebase has a static layout).
func (t *TwoTier) Free(addr uint64, size int) error {
	ci := t.classFor(size)
	if ci < 0 {
		n := (size + t.slabSize - 1) / t.slabSize * t.slabSize
		return t.src.FreeSlab(addr, n)
	}
	base := addr &^ (uint64(t.slabSize) - 1)
	sl, ok := t.byBase[base]
	if !ok {
		return fmt.Errorf("alloc: free of unknown slab %#x", addr)
	}
	cs := &t.classes[sl.class]
	off := addr - base
	if off%uint64(cs.size) != 0 {
		return fmt.Errorf("alloc: misaligned free %#x for class %d", addr, cs.size)
	}
	idx := uint32(off / uint64(cs.size))
	for _, f := range sl.free {
		if f == idx {
			return fmt.Errorf("alloc: double free of %#x", addr)
		}
	}
	wasFull := len(sl.free) == 0
	sl.free = append(sl.free, idx)
	sl.inUse--
	t.allocated -= int64(cs.size)
	if wasFull {
		cs.partial[sl.base] = sl
	}
	if sl.inUse == 0 {
		delete(cs.partial, sl.base)
		cs.empty = append(cs.empty, sl)
		return t.reclaim(cs)
	}
	return nil
}

// reclaim frees surplus empty slabs back to the back-end (the periodic
// reclamation of §5.2, triggered when the free-block threshold is hit).
func (t *TwoTier) reclaim(cs *classState) error {
	for len(cs.empty) > t.maxEmpty {
		sl := cs.empty[len(cs.empty)-1]
		cs.empty = cs.empty[:len(cs.empty)-1]
		delete(t.byBase, sl.base)
		if err := t.src.FreeSlab(sl.base, t.slabSize); err != nil {
			return err
		}
	}
	return nil
}

// ReclaimAll releases every empty slab immediately (used on shutdown).
func (t *TwoTier) ReclaimAll() error {
	for i := range t.classes {
		cs := &t.classes[i]
		for _, sl := range cs.empty {
			delete(t.byBase, sl.base)
			if err := t.src.FreeSlab(sl.base, t.slabSize); err != nil {
				return err
			}
		}
		cs.empty = nil
	}
	return nil
}
