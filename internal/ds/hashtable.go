package ds

import (
	"encoding/binary"
	"fmt"
	"slices"

	"asymnvm/internal/backend"
	"asymnvm/internal/core"
	"asymnvm/internal/logrec"
)

// HashTable is the chained hash table of §8.2. A fixed bucket array of
// 8-byte head pointers is allocated at creation (its address and size are
// persisted in the aux user area); nodes chain off the buckets. Caching
// is item-granular — bucket words and chain nodes are each their own
// cacheable unit, so hot keys stay in front-end DRAM. Batching brings no
// benefit for O(1) structures (per the paper), but works if enabled.
//
// Node layout: {next u64, key u64, vlen u32, pad u32, value[cap]}.
const htHdr = 24

// HashTable is a persistent chained hash map, SWMR like every structure.
// Like its handle, a HashTable belongs to one actor: a chain is walked and a
// node built in buffers the table owns.
type HashTable struct {
	kvBase
	buckets uint64
	arr     uint64 // global address of the bucket array
	// Walk scratch: the bucket word and the chain node a miss is fetched
	// into, delete's private copy of the predecessor it relinks, and the
	// image of the node a put writes (Handle.Write copies).
	word             [8]byte
	node, prev, unit []byte
	// GetMulti's walker, kept for its scratch — the result vectors and the
	// slab the matched values lie in — and the buffer its rounds are read into.
	multi htWalker
	rd    core.MultiBuf
}

func newHashTable(h *core.Handle, opts Options, writer bool, arr, buckets uint64) *HashTable {
	t := &HashTable{kvBase: newKVBase(h, opts, writer), buckets: buckets, arr: arr}
	t.node, t.prev, t.unit = make([]byte, t.nodeSize()), make([]byte, t.nodeSize()), make([]byte, t.nodeSize())
	t.multi.t = t
	return t
}

func (t *HashTable) nodeSize() int { return htHdr + t.cap }

// Aux user layout: +0 bucket array address, +8 bucket count.

// CreateHashTable registers a new hash table and allocates its buckets.
func CreateHashTable(c *core.Conn, name string, opts Options) (*HashTable, error) {
	opts.fill()
	h, err := c.Create(name, backend.TypeHashTable, opts.Create)
	if err != nil {
		return nil, err
	}
	arr, err := c.Calloc(uint64(opts.Buckets) * 8)
	if err != nil {
		return nil, err
	}
	// Persist the array location in the aux user area through the log
	// path, so replay — and therefore the mirrors — see it.
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:8], arr)
	binary.LittleEndian.PutUint64(b[8:], uint64(opts.Buckets))
	if err := h.Write(h.AuxAddr()+backend.AuxUser, b[:]); err != nil {
		return nil, err
	}
	if err := h.Flush(); err != nil {
		return nil, err
	}
	t := newHashTable(h, opts, true, arr, uint64(opts.Buckets))
	if !opts.LockPerOp {
		if err := h.WriterLock(); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// OpenHashTable attaches to an existing table.
func OpenHashTable(c *core.Conn, name string, writer bool, opts Options) (*HashTable, error) {
	opts.fill()
	h, err := c.Open(name, writer)
	if err != nil {
		return nil, err
	}
	meta, err := h.Read(h.AuxAddr()+backend.AuxUser, 16, false)
	if err != nil {
		return nil, err
	}
	t := newHashTable(h, opts, writer, binary.LittleEndian.Uint64(meta[:8]), binary.LittleEndian.Uint64(meta[8:]))
	if writer {
		if !opts.LockPerOp {
			if err := h.WriterLock(); err != nil {
				return nil, err
			}
		}
		if _, err := ReplayPending(h, t); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// hashKey mixes the key to a bucket index (fibonacci hashing).
func (t *HashTable) bucketAddr(key uint64) uint64 {
	idx := (key * 0x9E3779B97F4A7C15) % t.buckets
	return t.arr + idx*8
}

// encodeNode builds a node image in the table's scratch.
func (t *HashTable) encodeNode(next, key uint64, val []byte) []byte {
	buf := t.unit
	binary.LittleEndian.PutUint64(buf, next)
	binary.LittleEndian.PutUint64(buf[8:], key)
	binary.LittleEndian.PutUint32(buf[16:], uint32(len(val)))
	clear(buf[htHdr+copy(buf[htHdr:], val):])
	return buf
}

// Accessors over a node image, so a walk reads the unit where it lies.
func htNext(img []byte) uint64  { return binary.LittleEndian.Uint64(img) }
func htKey(img []byte) uint64   { return binary.LittleEndian.Uint64(img[8:]) }
func htVlen(img []byte) int     { return int(binary.LittleEndian.Uint32(img[16:])) }
func htValue(img []byte) []byte { return img[htHdr : htHdr+htVlen(img)] }

// check validates a node image before anything is taken from it.
func (t *HashTable) check(img []byte) error {
	if vlen := htVlen(img); vlen > t.cap {
		return fmt.Errorf("ds: corrupt hash node (vlen=%d)", vlen)
	}
	return nil
}

// bucketHead reads the chain head the bucket word at bAddr holds.
func (t *HashTable) bucketHead(bAddr uint64) (uint64, error) {
	w, err := t.h.ReadInto(bAddr, t.word[:], true)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(w), nil
}

// chainNode reads the chain node at addr: a view ReadInto serves — read-only,
// good until the walk's next read — or the table's node buffer.
func (t *HashTable) chainNode(addr uint64) ([]byte, error) {
	img, err := t.h.ReadInto(addr, t.node, true)
	if err != nil {
		return nil, err
	}
	return img, t.check(img)
}

// Put inserts or updates key.
func (t *HashTable) Put(key uint64, val []byte) error {
	if len(val) > t.cap {
		return ErrValueTooLarge
	}
	if err := t.w.begin(); err != nil {
		return err
	}
	if _, err := t.h.OpLog(OpPut, t.kv(key, val)); err != nil {
		return err
	}
	if err := t.put(key, val); err != nil {
		return err
	}
	return t.w.end()
}

// PutMulti inserts or updates a batch as one request-scoped group commit:
// N op records and one commit record leave in a single fabric round trip,
// and the call's return is the durability point of all of them. The
// arguments are validated before the first put, and any later error
// aborts the group — its op records never left the front-end and the
// overlay rolls back — so a failed PutMulti has no effect (barring a
// commit flush torn by a crash, which recovery completes or discards as
// for any unacknowledged write).
func (t *HashTable) PutMulti(keys []uint64, vals [][]byte) error {
	if len(keys) != len(vals) {
		return fmt.Errorf("ds: hash table put multi: %d keys, %d values", len(keys), len(vals))
	}
	for _, v := range vals {
		if len(v) > t.cap {
			return ErrValueTooLarge
		}
	}
	if len(keys) == 0 {
		return nil
	}
	if t.w.lockPerOp {
		// Pin the lock across the group: a per-put release would flush.
		if err := core.LockOrdered(t.h); err != nil {
			return err
		}
	}
	err := t.h.BeginGroup()
	if err == nil {
		for i, k := range keys {
			if err = t.Put(k, vals[i]); err != nil {
				break
			}
		}
		if err == nil {
			err = t.h.EndGroup()
		}
		if err != nil {
			t.h.Abort()
		}
	}
	if t.w.lockPerOp {
		if uerr := core.UnlockOrdered(t.h); err == nil {
			err = uerr
		}
	}
	return err
}

func (t *HashTable) put(key uint64, val []byte) error {
	bAddr := t.bucketAddr(key)
	head, err := t.bucketHead(bAddr)
	if err != nil {
		return err
	}
	// Walk the chain looking for the key.
	for n := head; n != 0; {
		img, err := t.chainNode(n)
		if err != nil {
			return err
		}
		if htKey(img) == key {
			// In-place update: rewrite the whole node unit.
			return t.h.Write(n, t.encodeNode(htNext(img), key, val))
		}
		n = htNext(img)
	}
	// Insert at the chain head.
	node, err := t.h.Alloc(t.nodeSize())
	if err != nil {
		return err
	}
	if err := t.h.Write(node, t.encodeNode(head, key, val)); err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(t.word[:], node)
	return t.h.Write(bAddr, t.word[:])
}

// Get looks a key up. Readers retry under the seqlock. The value is the
// caller's own copy — the lookup's one allocation.
func (t *HashTable) Get(key uint64) ([]byte, bool, error) { return t.GetInto(key, nil) }

// GetInto is Get appending the value to dst, which it returns as it was when
// the key is absent: a caller that keeps dst looks up without allocating.
func (t *HashTable) GetInto(key uint64, dst []byte) ([]byte, bool, error) {
	t.h.Conn().Frontend().ChargeOp()
	out, found := dst, false
	err := readRetry(t.h, func() error {
		out, found = dst, false
		n, err := t.bucketHead(t.bucketAddr(key))
		if err != nil {
			return err
		}
		for n != 0 {
			img, err := t.chainNode(n)
			if err != nil {
				return err
			}
			if htKey(img) == key {
				out, found = append(dst, htValue(img)...), true
				return nil
			}
			n = htNext(img)
		}
		return nil
	})
	return out, found, err
}

// GetMulti looks up a batch of keys with posted-verb parallelism: all
// bucket heads are fetched in one doorbell group, then the surviving
// chains advance level-synchronously — every chain's next node is an
// independent one-sided read, so a level costs one round trip per
// queue-depth window instead of one per key (htWalker). With chains of
// average length L the whole batch costs about L+1 group round trips where
// sequential Gets would pay len(keys)·(L+1). Results index-match keys and
// are the table's: good until its next GetMulti.
func (t *HashTable) GetMulti(keys []uint64) ([][]byte, []bool, error) {
	t.h.Conn().Frontend().ChargeOp()
	w := &t.multi
	w.vals = slices.Grow(w.vals[:0], len(keys))[:len(keys)]
	w.found = slices.Grow(w.found[:0], len(keys))[:len(keys)]
	err := readRetry(t.h, func() error {
		w.start(keys)
		return runWalker(t.h, w, &t.rd)
	})
	if err != nil {
		return nil, nil, err
	}
	return w.vals, w.found, nil
}

// Delete removes a key, reporting whether it existed.
func (t *HashTable) Delete(key uint64) (bool, error) {
	if err := t.w.begin(); err != nil {
		return false, err
	}
	if _, err := t.h.OpLog(OpDelete, t.kv(key, nil)); err != nil {
		return false, err
	}
	removed, err := t.delete(key)
	if err != nil {
		return false, err
	}
	return removed, t.w.end()
}

func (t *HashTable) delete(key uint64) (bool, error) {
	bAddr := t.bucketAddr(key)
	n, err := t.bucketHead(bAddr)
	if err != nil {
		return false, err
	}
	for prev := uint64(0); n != 0; {
		img, err := t.chainNode(n)
		if err != nil {
			return false, err
		}
		next := htNext(img)
		if htKey(img) == key {
			if prev == 0 {
				binary.LittleEndian.PutUint64(t.word[:], next)
				err = t.h.Write(bAddr, t.word[:])
			} else {
				// Relink the predecessor: of its unit only next changes.
				binary.LittleEndian.PutUint64(t.prev, next)
				err = t.h.WriteRanges(prev, t.prev, core.Range{Off: 0, Len: 8})
			}
			if err != nil {
				return false, err
			}
			t.h.DelayedFree(n, t.nodeSize())
			return true, nil
		}
		// Keep the walk's own copy of what may become the predecessor: img can
		// be the cache's bytes, which the next read may evict and a patch must
		// not reach anyway.
		copy(t.prev, img)
		prev, n = n, next
	}
	return false, nil
}

var hashTableReplay = replayTable[*HashTable]{
	put: (*HashTable).put,
	del: func(t *HashTable, key uint64) error { _, err := t.delete(key); return err },
}

// ReplayOp re-executes one pending op-log record.
func (t *HashTable) ReplayOp(rec logrec.OpRecord) error {
	return replayOp(t, "hash table", rec, &hashTableReplay)
}
