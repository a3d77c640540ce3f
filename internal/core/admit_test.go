package core

import (
	"bytes"
	"fmt"
	"testing"

	"asymnvm/internal/backend"
)

// TestWriteAdmitsWhileFilling pins write-time admission: while the cache has
// never evicted, a writer finds every unit it wrote in the cache once the
// overlay lets go — by the prune or by a drain — and fetches nothing; an
// image the cache already holds is patched and never replaced; an
// operation's payload is not admitted; from the first eviction on a write
// admits nothing; and an abort, which clears the cache, leaves no aborted
// byte behind and starts the phase over.
func TestWriteAdmitsWhileFilling(t *testing.T) {
	r := newRig(t, 32<<20)
	slot := uint16(0)
	open := func(t *testing.T, cache int64) (*Frontend, *Handle) {
		t.Helper()
		slot++
		fe := r.frontend(slot, ModeRC(cache))
		h, err := r.connect(fe).Create(fmt.Sprint("admit", slot), backend.TypeBST, smallOpts)
		if err != nil {
			t.Fatal(err)
		}
		return fe, h
	}
	alloc := func(t *testing.T, h *Handle, size int) uint64 {
		t.Helper()
		a, err := h.Alloc(size)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	// put is one operation that writes unit at addr and commits.
	put := func(t *testing.T, h *Handle, addr uint64, unit []byte) {
		t.Helper()
		if _, err := h.OpLog(1, nil); err != nil {
			t.Fatal(err)
		}
		if err := h.Write(addr, unit); err != nil {
			t.Fatal(err)
		}
		if err := h.EndOp(); err != nil {
			t.Fatal(err)
		}
	}
	// retire empties the overlay the way the maintenance prune does.
	retire := func(t *testing.T, h *Handle) {
		t.Helper()
		if err := h.waitReplayed(true); err != nil {
			t.Fatal(err)
		}
		if err := h.pruneOverlay(); err != nil {
			t.Fatal(err)
		}
		if len(h.overlay) != 0 {
			t.Fatalf("%d overlay units survive a prune behind a caught-up replayer", len(h.overlay))
		}
	}
	reads := func(t *testing.T, h *Handle, addr uint64, want []byte) {
		t.Helper()
		if got, err := h.Read(addr, len(want), true); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("unit %#x reads %x err=%v, want %x", addr, got, err, want)
		}
	}
	img := func(v byte, n int) []byte { return bytes.Repeat([]byte{v}, n) }

	for _, row := range []struct {
		name string
		let  func(*testing.T, *Handle) // how the overlay lets go
	}{
		{"pruned", retire},
		{"drained", func(t *testing.T, h *Handle) {
			if err := h.Drain(); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			fe, h := open(t, 1<<20)
			const n = 100
			var units [n]uint64
			for i := range units {
				units[i] = alloc(t, h, 88)
				put(t, h, units[i], img(byte(i), 88))
			}
			row.let(t, h)
			before := fe.Stats().Snapshot()
			for i, a := range units {
				reads(t, h, a, img(byte(i), 88))
			}
			if d := fe.Stats().Snapshot().Sub(before); d.RDMARead != 0 || d.CacheHit != n || d.CacheMiss != 0 {
				t.Fatalf("reading back %d written units: %d fabric reads, %d hits, %d misses; want none, %d, none", n, d.RDMARead, d.CacheHit, d.CacheMiss, n)
			}
		})
	}

	t.Run("keyed prefix is patched", func(t *testing.T) {
		fe, h := open(t, 1<<20)
		node := alloc(t, h, 64)
		h.AdmitKeyed(node, img(1, 16), 64, 500, 3)
		put(t, h, node, img(2, 64))
		if fe.Cache().Len() != 1 || fe.Cache().Used() != 16 {
			t.Fatalf("cache holds %d entries, %d bytes after the write; want the 16-byte prefix alone", fe.Cache().Len(), fe.Cache().Used())
		}
		if addr, got, ok := h.Floor(501, 3); !ok || addr != node || !bytes.Equal(got, img(2, 16)) {
			t.Fatalf("Floor(501, rank 3) = %#x %x ok=%v, want the patched head of %#x", addr, got, ok, node)
		}
		// The skip list's order: the unit is written — admitted whole — and
		// then its head admitted under a key. The entry becomes the prefix and
		// does not keep the unit's buffer under an image accounted at 16 bytes.
		other := alloc(t, h, 208)
		put(t, h, other, img(3, 208))
		h.AdmitKeyed(other, img(3, 16), 208, 600, 0)
		if e := fe.Cache().entries[other]; !e.keyed || len(e.data) != 16 || cap(e.data) > 32 || fe.Cache().Used() != 32 {
			t.Fatalf("a head admitted over its written unit: keyed=%v, %d bytes in a %d-byte buffer, %d cached in all; want a 16-byte prefix in a buffer its size",
				e.keyed, len(e.data), cap(e.data), fe.Cache().Used())
		}
	})

	t.Run("payload is not admitted", func(t *testing.T) {
		fe, h := open(t, 1<<20)
		blob, node := alloc(t, h, 64), alloc(t, h, 64)
		abs, err := h.OpLog(1, img(7, 64))
		if err != nil {
			t.Fatal(err)
		}
		if err := h.WriteFromOp(blob, img(7, 64), abs, 0); err != nil {
			t.Fatal(err)
		}
		if err := h.Write(node, img(8, 64)); err != nil {
			t.Fatal(err)
		}
		if err := h.EndOp(); err != nil {
			t.Fatal(err)
		}
		if c := fe.Cache(); c.Contains(blob) || !c.Contains(node) {
			t.Fatalf("cached: payload %v, node %v; want the node alone", c.Contains(blob), c.Contains(node))
		}
	})

	t.Run("nothing after the first eviction", func(t *testing.T) {
		fe, h := open(t, 4*88)
		var units [6]uint64
		for i := range units {
			units[i] = alloc(t, h, 88)
			put(t, h, units[i], img(byte(i), 88))
		}
		c := fe.Cache()
		if c.Len() != 4 || fe.Stats().CacheEvict.Load() != 0 || !c.filling {
			t.Fatalf("six writes into room for four: %d cached, %d evictions, filling=%v; want four, none, still filling", c.Len(), fe.Stats().CacheEvict.Load(), c.filling)
		}
		retire(t, h)
		reads(t, h, units[4], img(4, 88)) // a miss: its admission evicts
		if fe.Stats().CacheEvict.Load() != 1 || c.filling {
			t.Fatalf("%d evictions, filling=%v after a read's admission into a full cache", fe.Stats().CacheEvict.Load(), c.filling)
		}
		c.Invalidate(units[4]) // room again, and the phase stays over
		n, used := c.Len(), c.Used()
		put(t, h, units[5], img(9, 88))
		if c.Len() != n || c.Used() != used || fe.Stats().CacheEvict.Load() != 1 || c.Contains(units[5]) {
			t.Fatalf("a write after the first eviction: %d entries, %d bytes, %d evictions; want %d, %d, 1", c.Len(), c.Used(), fe.Stats().CacheEvict.Load(), n, used)
		}
		put(t, h, units[0], img(10, 88)) // write-through of a held unit still patches
		retire(t, h)
		if c.Contains(units[0]) {
			reads(t, h, units[0], img(10, 88))
		}
	})

	// abort rows: over a committed image, an aborted rewrite of it (patched)
	// and an aborted new unit (admitted) in the filling phase; then an abort
	// after the phase has ended.
	for _, row := range []struct {
		name  string
		abort func(*testing.T, *Handle, func())
	}{
		{"abort", func(t *testing.T, h *Handle, ops func()) {
			if err := h.BeginGroup(); err != nil {
				t.Fatal(err)
			}
			ops()
			h.Abort()
		}},
		{"abort 2PC", func(t *testing.T, h *Handle, ops func()) {
			tc, err := NewTxCoordinator(h.Conn(), "coord")
			if err != nil {
				t.Fatal(err)
			}
			tx, err := tc.Begin()
			if err != nil {
				t.Fatal(err)
			}
			if err := tx.Enroll(h); err != nil {
				t.Fatal(err)
			}
			ops()
			tx.Abort()
		}},
		{"abort prepared", func(t *testing.T, h *Handle, ops func()) {
			h.hold2pc = true
			ops()
			h.finish2PC(true)
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			fe, h := open(t, 4*64)
			c := fe.Cache()
			kept, fresh := alloc(t, h, 64), alloc(t, h, 64)
			put(t, h, kept, img(1, 64))
			cleared := func() {
				t.Helper()
				if c.Len() != 0 || !c.filling {
					t.Fatalf("after the abort the cache holds %d entries, filling=%v; want it cleared and filling", c.Len(), c.filling)
				}
			}
			row.abort(t, h, func() {
				put(t, h, kept, img(0xEE, 64))
				put(t, h, fresh, img(0xEF, 64))
				if !c.Contains(fresh) || len(h.pending) != 2 {
					t.Fatalf("before the abort: new unit cached=%v, %d entries pending; want it admitted and both writes open", c.Contains(fresh), len(h.pending))
				}
			})
			cleared()
			reads(t, h, kept, img(1, 64))
			reads(t, h, fresh, img(0, 64))

			// Four more units into the room left for three (the overlay still
			// answered for kept); reading the fourth back evicts, and the
			// phase is over until the next abort.
			var a uint64
			for i := 0; i < 4; i++ {
				a = alloc(t, h, 64)
				put(t, h, a, img(0x10, 64))
			}
			retire(t, h)
			reads(t, h, a, img(0x10, 64))
			if c.filling || fe.Stats().CacheEvict.Load() == 0 {
				t.Fatal("the filling phase outlived an eviction")
			}
			row.abort(t, h, func() {})
			cleared()
			put(t, h, fresh, img(2, 64))
			retire(t, h)
			before := fe.Stats().RDMARead.Load()
			reads(t, h, fresh, img(2, 64))
			if got := fe.Stats().RDMARead.Load() - before; got != 0 {
				t.Fatalf("a unit written after the abort cost %d fabric reads, want the re-opened phase to have admitted it", got)
			}
		})
	}

	t.Run("reused address, other size", func(t *testing.T) {
		fe, h := open(t, 1<<20)
		addr := alloc(t, h, 128)
		for _, size := range []int{64, 128, 32} {
			put(t, h, addr, img(byte(size), size))
			retire(t, h)
			before := fe.Stats().RDMARead.Load()
			reads(t, h, addr, img(byte(size), size))
			if got := fe.Stats().RDMARead.Load() - before; got != 0 {
				t.Fatalf("the %d-byte unit cost %d fabric reads, want a cache hit", size, got)
			}
		}
	})
}

// TestReadMultiHitOutlivesItsEviction pins ReadMulti's copy-on-hit: the cache
// holds one unit, so the two misses late in the vector are admitted over the
// hit early in it — the first evicts its entry, the second is copied into the
// image buffer that eviction handed back. The early result must still hold
// the bytes it had; a hit returned as a view of the cache would read as the
// last unit. The buffer is the caller's, kept: a second call builds its
// results in the same memory.
func TestReadMultiHitOutlivesItsEviction(t *testing.T) {
	r := newRig(t, 32<<20)
	mode := ModeRC(64)
	mode.Policy = PolicyLRU
	fe := r.frontend(1, mode)
	h, err := r.connect(fe).Create("multi", backend.TypeBST, smallOpts)
	if err != nil {
		t.Fatal(err)
	}
	var addrs [3]uint64
	var units [3][]byte
	for i := range addrs {
		if addrs[i], err = h.Alloc(64); err != nil {
			t.Fatal(err)
		}
		units[i] = bytes.Repeat([]byte{byte(0xA0 + i)}, 64)
		if _, err := h.OpLog(1, nil); err != nil {
			t.Fatal(err)
		}
		if err := h.Write(addrs[i], units[i]); err != nil {
			t.Fatal(err)
		}
		if err := h.EndOp(); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := h.Drain(); err != nil {
		t.Fatal(err)
	}
	// Whatever the writes left in the cache, this read leaves the first unit.
	fe.Cache().Clear()
	var buf [64]byte
	if _, err := h.ReadInto(addrs[0], buf[:], true); err != nil {
		t.Fatal(err)
	}
	st := fe.Stats()
	hits, evicts := st.CacheHit.Load(), st.CacheEvict.Load()
	var mb MultiBuf
	out, err := h.ReadMulti(&mb, addrs[:], 64, true)
	if err != nil {
		t.Fatal(err)
	}
	if st.CacheHit.Load()-hits != 1 || st.CacheEvict.Load()-evicts != 2 || !fe.Cache().Contains(addrs[2]) {
		t.Fatalf("%d hits, %d evictions: meant to hit the first unit and evict it and the second for the third", st.CacheHit.Load()-hits, st.CacheEvict.Load()-evicts)
	}
	for i := range out {
		if !bytes.Equal(out[i], units[i]) {
			t.Fatalf("result %d is %x…, want %x…", i, out[i][:4], units[i][:4])
		}
	}
	first := &out[0][0]
	if out, err = h.ReadMulti(&mb, addrs[1:], 64, true); err != nil || !bytes.Equal(out[0], units[1]) {
		t.Fatalf("second call: %x… err=%v", out[0][:4], err)
	}
	if &out[0][0] != first {
		t.Fatal("a kept buffer's second call built its results elsewhere")
	}
}
