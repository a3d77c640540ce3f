package ds

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"asymnvm/internal/core"
)

// TestHashTableRereadsNothingAfterDrain: a writer never fetches what it
// wrote. With a cache that fits, a populated table — drained, so the overlay
// no longer answers — serves every key from front-end DRAM; write-through
// admitted each node and bucket word when it was written. The other row puts
// the cache under pressure before the first put: a table populated elsewhere
// is read through a cache a quarter of its footprint, which has therefore
// evicted when this writer rewrites every key, and from the first eviction
// on a write admits nothing — the reads of the final pass are the parent
// commit's, to the verb.
func TestHashTableRereadsNothingAfterDrain(t *testing.T) {
	const keys = 512
	o := Options{Create: testCreate, Buckets: 128}
	footprint := int64(keys*(htHdr+64) + 128*8)
	getAll := func(t *testing.T, ht *HashTable, gen int) (reads int64) {
		t.Helper()
		st := ht.h.Conn().Frontend().Stats()
		before := st.RDMARead.Load()
		for k := 1; k <= keys; k++ {
			if got, ok, err := ht.Get(uint64(k)); err != nil || !ok || !bytes.Equal(got, val(gen+k)) {
				t.Fatalf("Get(%d) = %q ok=%v err=%v, want %q", k, got, ok, err, val(gen+k))
			}
		}
		return st.RDMARead.Load() - before
	}
	putAll := func(t *testing.T, ht *HashTable, gen int) {
		t.Helper()
		for k := 1; k <= keys; k++ {
			if err := ht.Put(uint64(k), val(gen+k)); err != nil {
				t.Fatal(err)
			}
		}
		if err := ht.h.VerifyOverlay(); err != nil {
			t.Fatal(err)
		}
		if err := ht.Drain(); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("fits", func(t *testing.T) {
		c := inPlaceConn(t, newRig(t), core.ModeRC(2*footprint))
		ht, err := CreateHashTable(c, "reread", o)
		if err != nil {
			t.Fatal(err)
		}
		putAll(t, ht, 0)
		if reads := getAll(t, ht, 0); reads != 0 || c.Frontend().Stats().CacheEvict.Load() != 0 {
			t.Fatalf("reading back %d drained keys: %d fabric reads, %d evictions; want none", keys, reads, c.Frontend().Stats().CacheEvict.Load())
		}
	})

	t.Run("evicted first", func(t *testing.T) {
		r := newRig(t)
		ht0, err := CreateHashTable(r.conn(2, core.ModeR()), "reread", o)
		if err != nil {
			t.Fatal(err)
		}
		putAll(t, ht0, 0)
		if err := ht0.h.WriterUnlock(); err != nil {
			t.Fatal(err)
		}
		c := inPlaceConn(t, r, core.ModeRC(footprint/4))
		ht, err := OpenHashTable(c, "reread", true, o)
		if err != nil {
			t.Fatal(err)
		}
		getAll(t, ht, 0)
		if c.Frontend().Stats().CacheEvict.Load() == 0 {
			t.Fatal("a pass over the table through a quarter of its footprint evicted nothing")
		}
		putAll(t, ht, 1000)
		const parent = 1791 // this row at the parent commit
		if reads := getAll(t, ht, 1000); reads != parent {
			t.Fatalf("reading back %d rewritten keys through a cache that had evicted: %d fabric reads, the parent's %d", keys, reads, parent)
		}
	})
}

// TestHashTableWritePathDeterministic: with a cache that fits, whether a read
// finds its unit in the overlay or in the cache no longer shows — admission
// is at write time, so when the overlay lets go is nobody's business. One
// seed run three ways — the overlay retired only by the maintenance prune,
// whenever the host lets it; drained every 49 puts; drained after every put —
// agrees on every read and write verb, every byte, and on the clock net of
// the atomic loads the drains and prunes themselves cost (one each, all the
// atomic verbs there are besides the stream's own). Part of `make
// determinism` (GOMAXPROCS 1, 2, 8).
func TestHashTableWritePathDeterministic(t *testing.T) {
	const ops, keys = 4096, 512
	o := Options{Create: testCreate, Buckets: 128}
	type outcome struct {
		reads, writes, bytesRead, bytesWrite, evicts int64
		clock                                        time.Duration
	}
	run := func(drainEvery int) outcome {
		c := inPlaceConn(t, newRig(t), core.ModeRC(1<<20))
		ht, err := CreateHashTable(c, "det", o)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(21))
		puts := 0
		for i := 0; i < ops; i++ {
			k := uint64(rng.Intn(keys)) + 1
			if rng.Intn(4) == 0 {
				err = ht.Put(k, val(i))
				if puts++; err == nil && drainEvery > 0 && puts%drainEvery == 0 {
					err = ht.Drain()
				}
			} else {
				_, _, err = ht.Get(k)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		fe := c.Frontend()
		s := fe.Stats().Snapshot()
		return outcome{s.RDMARead, s.RDMAWrite, s.BytesRead, s.BytesWrite, s.CacheEvict,
			fe.Clock().Now() - time.Duration(s.RDMAAtomic)*fe.Profile().RDMAAtomic}
	}
	never, some, every := run(0), run(49), run(1)
	if never != some || never != every {
		t.Fatalf("one seed, the overlay retired at different points:\n  prune only  %+v\n  every 49    %+v\n  every put   %+v", never, some, every)
	}
	if never.evicts != 0 || never.reads == 0 {
		t.Fatalf("%+v: the cache was meant to fit, and the stream to read the buckets it first touches", never)
	}
}
