package core

import (
	"bytes"
	"math/rand"
	"testing"

	"asymnvm/internal/backend"
)

// TestQuickHandleShadow drives random unit writes — whole, and ranged
// rewrites of a few bytes — and reads through a writer handle, checking
// every read against a shadow map, across flushes and drains — the core
// read-your-writes / overlay / replay contract.
func TestQuickHandleShadow(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		seed := seed
		t.Run("", func(t *testing.T) {
			r := newRig(t, 32<<20)
			fe := r.frontend(1, ModeRCB(256<<10, 16))
			c := r.connect(fe)
			h, err := c.Create("shadow", backend.TypeBST, smallOpts)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(seed))
			// A fixed set of 64-byte units.
			var units []uint64
			for i := 0; i < 24; i++ {
				a, err := h.Alloc(64)
				if err != nil {
					t.Fatal(err)
				}
				units = append(units, a)
			}
			shadow := map[uint64][]byte{}
			for step := 0; step < 400; step++ {
				u := units[rng.Intn(len(units))]
				switch rng.Intn(5) {
				case 0, 1: // write
					v := make([]byte, 64)
					rng.Read(v)
					if _, err := h.OpLog(1, v); err != nil {
						t.Fatal(err)
					}
					if err := h.Write(u, v); err != nil {
						t.Fatal(err)
					}
					if err := h.EndOp(); err != nil {
						t.Fatal(err)
					}
					shadow[u] = v
				case 4: // rewrite up to three ranges of a unit written before
					old, ok := shadow[u]
					if !ok {
						continue
					}
					v := append([]byte(nil), old...)
					var dirty []Range
					for off := rng.Intn(24); off < 64 && len(dirty) < 3; off += rng.Intn(32) {
						r := Range{Off: off, Len: rng.Intn(min(12, 64-off) + 1)}
						rng.Read(v[r.Off : r.Off+r.Len])
						dirty = append(dirty, r)
						off += r.Len
					}
					if _, err := h.OpLog(1, v); err != nil {
						t.Fatal(err)
					}
					if err := h.WriteRanges(u, v, dirty...); err != nil {
						t.Fatal(err)
					}
					if err := h.EndOp(); err != nil {
						t.Fatal(err)
					}
					shadow[u] = v
				case 2: // read
					want, ok := shadow[u]
					if !ok {
						continue
					}
					got, err := h.Read(u, 64, rng.Intn(2) == 0)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("seed %d step %d: unit %#x diverged", seed, step, u)
					}
				case 3: // occasionally force full persistence
					if step%7 == 0 {
						if err := h.VerifyOverlay(); err != nil {
							t.Fatal(err)
						}
						if err := h.Drain(); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			if err := h.VerifyOverlay(); err != nil {
				t.Fatal(err)
			}
			if err := h.Drain(); err != nil {
				t.Fatal(err)
			}
			// After drain, NVM itself (a fresh reader, no overlay) agrees.
			fe2 := r.frontend(2, ModeR())
			c2 := r.connect(fe2)
			h2, err := c2.Open("shadow", false)
			if err != nil {
				t.Fatal(err)
			}
			for u, want := range shadow {
				got, err := h2.Read(u, 64, false)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("seed %d: unit %#x wrong in NVM after drain", seed, u)
				}
			}
		})
	}
}

// TestQuickWriterHandoff repeatedly "crashes" the writer mid-stream and
// hands the structure to a new front-end, which must resume exactly at
// the durable state.
func TestQuickWriterHandoff(t *testing.T) {
	r := newRig(t, 32<<20)
	shadow := map[uint64][]byte{}
	var units []uint64

	fe := r.frontend(1, ModeR())
	c := r.connect(fe)
	h, err := c.Create("handoff", backend.TypeBST, smallOpts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		a, err := h.Alloc(32)
		if err != nil {
			t.Fatal(err)
		}
		units = append(units, a)
	}
	rng := rand.New(rand.NewSource(99))
	for gen := 0; gen < 6; gen++ {
		for step := 0; step < 30; step++ {
			u := units[rng.Intn(len(units))]
			v := make([]byte, 32)
			rng.Read(v)
			if _, err := h.OpLog(1, v); err != nil {
				t.Fatal(err)
			}
			if err := h.Write(u, v); err != nil {
				t.Fatal(err)
			}
			if err := h.EndOp(); err != nil {
				t.Fatal(err)
			}
			shadow[u] = v
		}
		// In unbatched R mode every EndOp flushed its tx, so the shadow
		// is durable. The writer vanishes without unlocking.
		id := uint16(2 + gen)
		fe = r.frontend(id, ModeR())
		c = r.connect(fe)
		h, err = c.Open("handoff", true)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.BreakLock(id - 1); err != nil {
			t.Fatal(err)
		}
		if err := h.WriterLock(); err != nil {
			t.Fatal(err)
		}
		for u, want := range shadow {
			got, err := h.Read(u, 32, false)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("gen %d: unit %#x lost across handoff", gen, u)
			}
		}
	}
}
