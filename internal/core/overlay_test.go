package core

import (
	"bytes"
	"testing"

	"asymnvm/internal/backend"
)

// TestOverlayRecycles pins what the handle's write side keeps for itself:
// overlay entries and their images, flush-mark address lists and posted
// op-record vectors go round between the writes, the commit flushes and the
// prune — and a recycled image never shows through the unit that gets it.
func TestOverlayRecycles(t *testing.T) {
	r := newRig(t, 16<<20)
	fe := r.frontend(1, ModeRCB(0, 4).WithPipeline(4))
	h, err := r.connect(fe).Create("recycle", backend.TypeBST, smallOpts)
	if err != nil {
		t.Fatal(err)
	}
	// Three unit sizes — a word, a blob, a node — of 64 units each.
	sizes := []int{8, 68, 520}
	var units [3][64]uint64
	for s, size := range sizes {
		for i := range units[s] {
			if units[s][i], err = h.Alloc(size); err != nil {
				t.Fatal(err)
			}
		}
	}
	img := make([]byte, 520)
	op := func(i int) {
		t.Helper()
		if _, err := h.OpLog(1, img[:16]); err != nil {
			t.Fatal(err)
		}
		for s, size := range sizes {
			img[0] = byte(i)
			if err := h.Write(units[s][i%64], img[:size]); err != nil {
				t.Fatal(err)
			}
		}
		if err := h.EndOp(); err != nil {
			t.Fatal(err)
		}
	}
	// One cycle runs the overlay through its whole life: 4 operations to a
	// commit flush, each flush waited out, until the prune falls due — past
	// 48 marks, off the hint flushes — and, finding all but the newest mark
	// applied, retires every entry they hold.
	n := 0
	cycle := func() {
		for marks := -1; len(h.marks) > marks; {
			marks = len(h.marks)
			for i := 0; i < 4; i++ {
				op(n)
				n++
			}
			if err := h.waitReplayed(true); err != nil {
				t.Fatal(err)
			}
		}
	}
	cycle()
	cycle()
	if len(h.marks) != 1 || len(h.overlay) > 3*4 {
		t.Fatalf("after two cycles %d marks and %d overlay units wait: the prune was meant to leave the last flush's", len(h.marks), len(h.overlay))
	}
	if allocs := testing.AllocsPerRun(3, cycle); allocs != 0 {
		t.Errorf("a write/flush/prune cycle allocates %.0f times after warm-up, want 0", allocs)
	}

	// A handle that drains per operation — an MV root-CAS lane publishing, a
	// shared stripe's release — drops the overlay and its marks wholesale, and
	// through the same recycling: the next operation's entries are the last's.
	drained := func() {
		op(n)
		n++
		if err := h.Drain(); err != nil {
			t.Fatal(err)
		}
		if len(h.overlay) != 0 || len(h.marks) != 0 {
			t.Fatalf("a drain left %d overlay units and %d marks", len(h.overlay), len(h.marks))
		}
	}
	drained()
	if allocs := testing.AllocsPerRun(20, drained); allocs != 0 {
		t.Errorf("a write/drain cycle allocates %.0f times after warm-up, want 0", allocs)
	}

	// A unit written into a recycled image reads back its own bytes, and so
	// does the unit the image was taken from once it is written again.
	if err := h.pruneOverlay(); err != nil {
		t.Fatal(err)
	}
	if len(h.overlay) != 0 || len(h.ovFree.sizes) != len(sizes) {
		t.Fatalf("%d overlay units left, %d free lists: want every entry retired, by size", len(h.overlay), len(h.ovFree.sizes))
	}
	a, b := units[2][0], units[2][1]
	nodes := h.ovFree.sizes[2].ents
	was := nodes[len(nodes)-1]
	imgA, imgB := bytes.Repeat([]byte{0xA1}, 520), bytes.Repeat([]byte{0xB2}, 520)
	write := func(addr uint64, unit []byte) {
		t.Helper()
		if err := h.Write(addr, unit); err != nil {
			t.Fatal(err)
		}
	}
	reads := func(addr uint64, want []byte) {
		t.Helper()
		if got, err := h.Read(addr, len(want), false); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("unit %#x reads %x… err=%v, want %x…", addr, got[:4], err, want[:4])
		}
	}
	write(b, imgB)
	if h.overlay[b] != was {
		t.Fatal("the write did not take its entry from the free list")
	}
	write(a, imgA)
	reads(a, imgA)
	reads(b, imgB)
	if err := h.Flush(); err != nil {
		t.Fatal(err)
	}

	// An abort restores the images the open transaction displaced, from the
	// undo log, and drops the units it created — with recycled entries on
	// both sides — and what the overlay then holds is what replay produces.
	imgA2, imgC := bytes.Repeat([]byte{0xA3}, 520), bytes.Repeat([]byte{0xC4}, 520)
	c := units[2][2]
	write(a, imgA2)
	write(c, imgC)
	reads(a, imgA2)
	h.Abort()
	if _, held := h.overlay[c]; held || len(h.ovFree.sizes) != 0 {
		t.Fatalf("after the abort: created unit still held=%v, %d free lists; want both dropped", held, len(h.ovFree.sizes))
	}
	reads(a, imgA)
	reads(b, imgB)
	if err := h.VerifyOverlay(); err != nil {
		t.Fatal(err)
	}
	reads(a, imgA)
}
