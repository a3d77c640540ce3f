package nvm

import (
	"bytes"
	"math/rand"
	"testing"
)

// refDevice is the persistence window as it was first written — a flat
// list of undo images, every seal a scan of all of them — kept as the
// reference the line-indexed Device is checked against.
type refDevice struct {
	data []byte
	pend []pending
}

func (d *refDevice) writeAt(off uint64, data []byte) {
	old := make([]byte, len(data))
	copy(old, d.data[off:])
	d.pend = append(d.pend, pending{off: off, old: old})
	copy(d.data[off:], data)
}

func (d *refDevice) writePersist(off uint64, data []byte) {
	copy(d.data[off:], data)
	d.seal(off, len(data))
}

func (d *refDevice) store64(off uint64, v uint64) {
	putLE64(d.data[off:], v)
	d.seal(off, 8)
}

func (d *refDevice) seal(off uint64, n int) {
	end := off + uint64(n)
	for i := range d.pend {
		p := &d.pend[i]
		pEnd := p.off + uint64(len(p.old))
		if p.off >= end || pEnd <= off {
			continue
		}
		lo := max64(p.off, off)
		hi := min64(pEnd, end)
		copy(p.old[lo-p.off:hi-p.off], d.data[lo:hi])
	}
}

func (d *refDevice) crash(rng *rand.Rand) int {
	n := len(d.pend)
	if n == 0 {
		return 0
	}
	lose := 1 + rng.Intn(n)
	tear := rng.Intn(2) == 0
	for i := n - 1; i >= n-lose; i-- {
		p := d.pend[i]
		if tear && i == n-lose && len(p.old) > LineSize {
			keep := (rng.Intn(len(p.old)/LineSize + 1)) * LineSize
			copy(d.data[p.off+uint64(keep):], p.old[keep:])
			continue
		}
		copy(d.data[p.off:], p.old)
	}
	d.pend = d.pend[:0]
	return lose
}

// TestWindowMatchesLinearReference drives random WriteAt / WritePersist /
// Store64 / PersistAll / Crash(rng) sequences through a Device and through
// the linear reference, each crash drawing from its own copy of one seeded
// stream: the visible bytes agree after every step's crash, tears included,
// and so does how many writes each crash lost. Two accesses in three land in
// 512 bytes around the device's one page boundary, so that seals find long
// chains, straddle pages, and hit writes that do.
func TestWindowMatchesLinearReference(t *testing.T) {
	const size, hot = 2 * pageSize, pageSize - 256
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		crashA, crashB := rand.New(rand.NewSource(-seed)), rand.New(rand.NewSource(-seed))
		d := NewDevice(size)
		ref := &refDevice{data: make([]byte, size)}
		span := func(maxLen int) (uint64, []byte) {
			n := rng.Intn(maxLen + 1)
			off := uint64(rng.Intn(size - n + 1))
			if rng.Intn(3) > 0 {
				off = hot + uint64(rng.Intn(512-min(n, 511)))
			}
			data := make([]byte, n)
			rng.Read(data)
			return off, data
		}
		for step := 0; step < 600; step++ {
			switch op := rng.Intn(20); {
			case op < 9:
				off, data := span(5 * LineSize)
				if err := d.WriteAt(off, data); err != nil {
					t.Fatal(err)
				}
				ref.writeAt(off, data)
			case op < 14:
				off, data := span(3 * LineSize)
				if err := d.WritePersist(off, data); err != nil {
					t.Fatal(err)
				}
				ref.writePersist(off, data)
			case op < 18:
				off, v := uint64(rng.Intn(size-8)), rng.Uint64()
				if rng.Intn(3) > 0 {
					off = hot + uint64(rng.Intn(504))
				}
				if err := d.Store64(off, v); err != nil {
					t.Fatal(err)
				}
				ref.store64(off, v)
			case op == 18:
				d.PersistAll()
				ref.pend = ref.pend[:0]
			default:
				if got, want := d.Crash(crashA), ref.crash(crashB); got != want {
					t.Fatalf("seed %d step %d: crash lost %d writes, reference %d", seed, step, got, want)
				}
			}
			if got := d.Snapshot(); !bytes.Equal(got, ref.data) {
				t.Fatalf("seed %d step %d: device bytes diverge from the linear reference", seed, step)
			}
			if d.PendingWrites() != len(ref.pend) {
				t.Fatalf("seed %d step %d: %d pending writes, reference %d", seed, step, d.PendingWrites(), len(ref.pend))
			}
		}
		// Whatever the last steps left pending: lose it, torn.
		d.Crash(crashA)
		ref.crash(crashB)
		if !bytes.Equal(d.Snapshot(), ref.data) {
			t.Fatalf("seed %d: device bytes diverge after the final crash", seed)
		}
	}
}

// TestWindowSteadyStateAllocatesNothing pins the other half of the window's
// contract: once the window has reached its size, a cycle of volatile
// writes, seals and a persist reuses the undo arena and the chains.
func TestWindowSteadyStateAllocatesNothing(t *testing.T) {
	d := NewDevice(1 << 20)
	line := make([]byte, LineSize)
	for i := 0; i < 4096; i++ {
		if err := d.WriteAt(uint64(i)*128, line); err != nil {
			t.Fatal(err)
		}
	}
	d.PersistAll()
	allocs := testing.AllocsPerRun(50, func() {
		for i := 0; i < 4096; i++ {
			_ = d.WriteAt(uint64(i)*128, line)
			_ = d.WritePersist(uint64(i)*128+64, line)
			_ = d.Store64(uint64(i)*128+8, uint64(i))
		}
		d.PersistAll()
	})
	if allocs != 0 {
		t.Fatalf("a steady write/seal/persist cycle allocates %.1f times, want 0", allocs)
	}
}
