package arena

import (
	"bytes"
	"testing"
)

func TestArenaAllocAndReset(t *testing.T) {
	var a Arena
	b1 := a.Alloc(16)
	if len(b1) != 16 {
		t.Fatalf("len = %d, want 16", len(b1))
	}
	copy(b1, bytes.Repeat([]byte{0xAA}, 16))
	b2 := a.Copy([]byte("hello"))
	if string(b2) != "hello" {
		t.Fatalf("copy = %q", b2)
	}
	// Distinct allocations must not alias.
	b1[0] = 0x11
	if b2[0] != 'h' {
		t.Fatal("allocations alias")
	}
	a.Reset()
	b3 := a.Alloc(16)
	// After reset the same memory comes back (chunk reuse).
	if &b3[0] != &b1[0] {
		t.Fatal("reset did not recycle the first chunk")
	}
}

func TestArenaOversizedAlloc(t *testing.T) {
	var a Arena
	big := a.Alloc(chunkSize * 2)
	if len(big) != chunkSize*2 {
		t.Fatalf("len = %d", len(big))
	}
	small := a.Alloc(8)
	if len(small) != 8 {
		t.Fatalf("len = %d", len(small))
	}
	if a.Cap() < chunkSize*2 {
		t.Fatalf("cap = %d", a.Cap())
	}
}

func TestArenaAllocBoundsCapacity(t *testing.T) {
	var a Arena
	b := a.Alloc(8)
	if cap(b) != 8 {
		// Full-slice expressions must clip capacity so append on an
		// arena slice cannot scribble over a neighbour.
		t.Fatalf("cap = %d, want 8", cap(b))
	}
}

func TestArenaSteadyStateZeroAlloc(t *testing.T) {
	var a Arena
	// Warm: one pass allocates the chunk.
	a.Alloc(1024)
	a.Reset()
	if allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 16; i++ {
			a.Alloc(64)
		}
		a.Reset()
	}); allocs != 0 {
		t.Fatalf("steady-state arena allocates %.1f/op, want 0", allocs)
	}
}
