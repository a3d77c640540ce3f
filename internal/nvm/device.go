// Package nvm simulates a byte-addressable non-volatile memory device of
// the kind AsymNVM attaches to its back-end nodes (the paper used Intel
// Optane DC Persistent Memory in App Direct mode).
//
// The simulation keeps the two properties the paper's crash-consistency
// design actually depends on:
//
//   - byte-addressable random access, with media latency charged by the
//     caller (the RDMA layer or a local accessor), and
//   - a persistence window: bytes written but not yet flushed live in a
//     volatile window and may be lost — possibly partially, at a 64-byte
//     line granularity — when power fails. This is what forces the
//     framework to checksum transaction logs and validate them on restart.
package nvm

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"asymnvm/internal/arena"
)

// LineSize is the granularity at which a power failure can tear a write.
// Optane persists data in units no smaller than a cache line.
const LineSize = 64

// ErrOutOfRange is returned for accesses beyond the device capacity.
var ErrOutOfRange = errors.New("nvm: access out of range")

// pending records the undo image of one not-yet-persisted write.
type pending struct {
	off uint64
	old []byte // previous contents, for revert on power failure
}

// pageSize is the granule of the persistence window's index. A page keeps
// the index at 1/1024 of the device (a head word per line would be 1/16 of
// it, all resident) and still separates what matters: the log areas, which
// are only ever sealed, from the data pages, which are only ever written
// volatile.
const pageSize = 4096

// pages returns the pages [off, end) touches, as a half-open range of page
// numbers: none for an empty range.
func pages(off, end uint64) (uint64, uint64) {
	if end <= off {
		return 0, 0
	}
	return off / pageSize, (end + pageSize - 1) / pageSize
}

// link is one element of a page's chain in the window index: a pending
// write that touches the page, and the next older one that does (1 + its
// index in Device.links; 0 ends the chain).
type link struct{ pend, next int32 }

// Device is a simulated NVM DIMM: a flat byte space with explicit
// persistence points and power-failure injection.
//
// Writes become visible immediately (reads see them) but stay revertible
// until Persist or PersistAll is called; Crash reverts a random suffix of
// the unpersisted writes and may tear the oldest surviving one at a line
// boundary. All methods are safe for concurrent use.
type Device struct {
	mu   sync.RWMutex
	data []byte
	pend []pending
	undo arena.Arena // backs every pending.old; recycled with the window
	// The window indexed by page, so that sealing a range costs the pending
	// writes on its pages and not a scan of the window (which on the lazy
	// replay plane only drains at a checkpoint): head[p] is 1 + the index in
	// links of the newest pending write that touches page p. head is sized
	// once and links is reused, so a steady state allocates nothing.
	head    []int32
	links   []link
	crashes int
}

// NewDevice creates a device with the given capacity in bytes, zero-filled.
func NewDevice(size int) *Device {
	return &Device{data: make([]byte, size), head: make([]int32, (size+pageSize-1)/pageSize)}
}

// Size reports the device capacity in bytes.
func (d *Device) Size() uint64 { return uint64(len(d.data)) }

// check validates an access range.
func (d *Device) check(off uint64, n int) error {
	if n < 0 || off > uint64(len(d.data)) || uint64(n) > uint64(len(d.data))-off {
		return fmt.Errorf("%w: off=%d len=%d cap=%d", ErrOutOfRange, off, n, len(d.data))
	}
	return nil
}

// ReadAt copies len(buf) bytes starting at off into buf. It always returns
// the most recent write, persisted or not (NVM is memory: loads see stores).
func (d *Device) ReadAt(off uint64, buf []byte) error {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if err := d.check(off, len(buf)); err != nil {
		return err
	}
	copy(buf, d.data[off:])
	return nil
}

// WriteAt stores data at off. The write is immediately visible but not yet
// durable; it joins the persistence window until Persist/PersistAll.
func (d *Device) WriteAt(off uint64, data []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.writeLocked(off, data)
}

func (d *Device) writeLocked(off uint64, data []byte) error {
	if err := d.check(off, len(data)); err != nil {
		return err
	}
	end := off + uint64(len(data))
	idx := int32(len(d.pend))
	d.pend = append(d.pend, pending{off: off, old: d.undo.Copy(d.data[off:end])})
	for pg, stop := pages(off, end); pg < stop; pg++ {
		d.links = append(d.links, link{pend: idx, next: d.head[pg]})
		d.head[pg] = int32(len(d.links))
	}
	copy(d.data[off:], data)
	return nil
}

// dropWindow empties the persistence window and its index, in time
// proportional to the window.
func (d *Device) dropWindow() {
	for _, p := range d.pend {
		for pg, stop := pages(p.off, p.off+uint64(len(p.old))); pg < stop; pg++ {
			d.head[pg] = 0
		}
	}
	d.pend = d.pend[:0]
	d.links = d.links[:0]
	d.undo.Reset()
}

// WritePersist stores data and makes exactly that range durable. It models
// a one-sided RDMA write whose acknowledgement implies the data reached the
// persistence domain, and local writes followed by a ranged flush. Unrelated
// writes elsewhere in the volatile window stay revertible — durability is a
// property of the acknowledged range, not of the whole device.
func (d *Device) WritePersist(off uint64, data []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.check(off, len(data)); err != nil {
		return err
	}
	copy(d.data[off:], data)
	d.sealRange(off, len(data))
	return nil
}

// PersistAll drains the persistence window: every prior write becomes
// durable and can no longer be lost by Crash.
func (d *Device) PersistAll() {
	d.mu.Lock()
	d.dropWindow()
	d.mu.Unlock()
}

// PendingWrites reports how many writes are still in the volatile window.
func (d *Device) PendingWrites() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.pend)
}

// VolatileBytes reports how many bytes of [off, off+n) are covered by the
// volatile persistence window — visible to reads but still revertible by a
// power failure. Overlapping pending writes are counted once. Tests use it
// to distinguish a truncated (unacknowledged) RDMA write, which must stay
// volatile, from an acknowledged one, which must not.
func (d *Device) VolatileBytes(off uint64, n int) int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if n <= 0 {
		return 0
	}
	covered := make([]bool, n)
	total := 0
	for _, p := range d.pend {
		lo, hi := p.off, p.off+uint64(len(p.old))
		if hi <= off || lo >= off+uint64(n) {
			continue
		}
		if lo < off {
			lo = off
		}
		if hi > off+uint64(n) {
			hi = off + uint64(n)
		}
		for i := lo - off; i < hi-off; i++ {
			if !covered[i] {
				covered[i] = true
				total++
			}
		}
	}
	return total
}

// Crashes reports how many power failures the device has absorbed.
func (d *Device) Crashes() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.crashes
}

// Crash simulates a power failure. A random suffix of the unpersisted
// writes is lost (reverted, newest first), and the oldest lost write may
// be torn: a prefix of its lines survives. rng drives the randomness so
// tests can be deterministic; a nil rng loses the entire window untorn.
// It returns the number of writes fully or partially lost.
func (d *Device) Crash(rng *rand.Rand) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.crashes++
	n := len(d.pend)
	if n == 0 {
		return 0
	}
	lose := n
	tear := false
	if rng != nil {
		lose = 1 + rng.Intn(n) // lose at least the newest write
		tear = rng.Intn(2) == 0
	}
	// Revert newest-first so overlapping writes unwind correctly.
	for i := n - 1; i >= n-lose; i-- {
		p := d.pend[i]
		if tear && i == n-lose && len(p.old) > LineSize {
			// Tear: a prefix of whole lines of the new data survives.
			keep := (rng.Intn(len(p.old)/LineSize + 1)) * LineSize
			copy(d.data[p.off+uint64(keep):], p.old[keep:])
			continue
		}
		copy(d.data[p.off:], p.old)
	}
	d.dropWindow()
	return lose
}

// Snapshot returns a copy of the full device contents (persisted view is
// not distinguished; callers wanting the durable image should PersistAll
// or Crash first).
func (d *Device) Snapshot() []byte {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]byte, len(d.data))
	copy(out, d.data)
	return out
}

// Restore overwrites the device contents with img (which must match the
// capacity) and clears the persistence window.
func (d *Device) Restore(img []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(img) != len(d.data) {
		return fmt.Errorf("nvm: restore size %d != capacity %d", len(img), len(d.data))
	}
	copy(d.data, img)
	d.dropWindow()
	return nil
}

// sealRange makes the current contents of [off, off+n) immune to Crash by
// rewriting the overlapping parts of every pending undo image — found
// through the page index, one page of the range at a time, so an image
// that spans pages is patched once per page, each time only inside it.
// Atomic verbs use it: they are durable on return even though earlier
// plain writes to the same lines are still volatile.
func (d *Device) sealRange(off uint64, n int) {
	end := off + uint64(n)
	for pg, stop := pages(off, end); pg < stop; pg++ {
		lo, hi := max64(off, pg*pageSize), min64(end, (pg+1)*pageSize)
		for i := d.head[pg]; i != 0; i = d.links[i-1].next {
			p := &d.pend[d.links[i-1].pend]
			if a, b := max64(p.off, lo), min64(p.off+uint64(len(p.old)), hi); a < b {
				copy(p.old[a-p.off:b-p.off], d.data[a:b])
			}
		}
	}
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

// CompareAndSwap64 atomically (under the device lock) compares the 8 bytes
// at off, interpreted little-endian, with old and writes new if they match.
// The result is durable immediately, modelling an RDMA atomic that is
// acknowledged from the persistence domain. It returns the previous value
// and whether the swap happened.
func (d *Device) CompareAndSwap64(off uint64, old, new uint64) (uint64, bool, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.check(off, 8); err != nil {
		return 0, false, err
	}
	cur := le64(d.data[off:])
	if cur != old {
		return cur, false, nil
	}
	putLE64(d.data[off:], new)
	d.sealRange(off, 8)
	return cur, true, nil
}

// FetchAdd64 atomically adds delta to the 8 bytes at off and returns the
// previous value. Durable immediately.
func (d *Device) FetchAdd64(off uint64, delta uint64) (uint64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.check(off, 8); err != nil {
		return 0, err
	}
	cur := le64(d.data[off:])
	putLE64(d.data[off:], cur+delta)
	d.sealRange(off, 8)
	return cur, nil
}

// Load64 atomically reads the 8 bytes at off as a little-endian uint64.
func (d *Device) Load64(off uint64) (uint64, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if err := d.check(off, 8); err != nil {
		return 0, err
	}
	return le64(d.data[off:]), nil
}

// Store64 atomically writes v at off, durable immediately.
func (d *Device) Store64(off uint64, v uint64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.check(off, 8); err != nil {
		return err
	}
	putLE64(d.data[off:], v)
	d.sealRange(off, 8)
	return nil
}

func le64(b []byte) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func putLE64(b []byte, v uint64) {
	_ = b[7]
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	b[4] = byte(v >> 32)
	b[5] = byte(v >> 40)
	b[6] = byte(v >> 48)
	b[7] = byte(v >> 56)
}
