package ds

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"asymnvm/internal/core"
)

// TestStripedHandoff checks the shared-lock writer handoff: front-end A
// creates a striped hash table and writes half the keys, front-end B
// attaches as a second writer and writes the other half plus overwrites
// of A's keys, and both a fresh reader and A itself (after re-acquiring
// the stripe locks) must observe B's writes.
func TestStripedHandoff(t *testing.T) {
	r := newRig(t)
	ca := r.conn(1, core.ModeRC(1<<20))
	sa, err := CreateStriped(ca, KindHashTable, "str", 4, Options{Create: testCreate, Buckets: 1 << 6})
	if err != nil {
		t.Fatal(err)
	}
	if sa.Shards() != 4 {
		t.Fatalf("stripes = %d, want 4", sa.Shards())
	}
	const keys = 64
	for k := uint64(0); k < keys/2; k++ {
		if err := sa.Put(k, val(int(k))); err != nil {
			t.Fatal(err)
		}
	}

	cb := r.conn(2, core.ModeRC(1<<20))
	sb, err := OpenSharded([]*core.Conn{cb}, "str", true, Options{Create: testCreate, Buckets: 1 << 6})
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(keys / 2); k < keys; k++ {
		if err := sb.Put(k, val(int(k))); err != nil {
			t.Fatal(err)
		}
	}
	// Overwrite a few of A's keys from B: the stripe handoff must carry
	// the overlay role over, not fork the log.
	for k := uint64(0); k < 8; k++ {
		if err := sb.Put(k, val(1000+int(k))); err != nil {
			t.Fatal(err)
		}
	}

	check := func(tag string, s *Sharded) {
		t.Helper()
		for k := uint64(0); k < keys; k++ {
			want := val(int(k))
			if k < 8 {
				want = val(1000 + int(k))
			}
			got, ok, err := s.Get(k)
			if err != nil {
				t.Fatalf("%s: get %d: %v", tag, k, err)
			}
			if !ok || string(got) != string(want) {
				t.Fatalf("%s: key %d = %q ok=%v, want %q", tag, k, got, ok, want)
			}
		}
	}
	rd := r.conn(3, core.ModeRC(1<<20))
	sr, err := OpenSharded([]*core.Conn{rd}, "str", false, Options{Create: testCreate, Buckets: 1 << 6})
	if err != nil {
		t.Fatal(err)
	}
	check("reader", sr)
	// A's next writes re-acquire stripe locks and resync, so its view
	// includes B's overwrites.
	if err := sa.AddMulti([]uint64{100, 101}, 1); err != nil {
		t.Fatal(err)
	}
	check("writer-a", sa)
}

// TestStripedPutMultiCrossStripe exercises the ordered multi-stripe path
// single-threaded: batches that span every stripe must land atomically
// and release all locks for the next batch.
func TestStripedPutMultiCrossStripe(t *testing.T) {
	r := newRig(t)
	c := r.conn(1, core.ModeRC(1<<20))
	s, err := CreateStriped(c, KindHashTable, "strm", 8, Options{Create: testCreate, Buckets: 1 << 6})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]uint64, 32)
	vals := make([][]byte, 32)
	for round := 0; round < 4; round++ {
		for i := range keys {
			keys[i] = uint64(i)
			vals[i] = val(round*100 + i)
		}
		if err := s.PutMulti(keys, vals); err != nil {
			t.Fatal(err)
		}
	}
	got, found, err := s.GetMulti(keys)
	if err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		if !found[i] || string(got[i]) != string(val(300+i)) {
			t.Fatalf("key %d = %q found=%v", keys[i], got[i], found[i])
		}
	}
}

// TestStripedGetMultiMatchesGet pins the lock-step fan-out walk on the
// shared discipline: a reader's cross-stripe GetMulti returns exactly what
// per-key Gets return (and what was written), while a second front-end
// keeps committing to the other stripes of the same structure.
func TestStripedGetMultiMatchesGet(t *testing.T) {
	r := newRig(t)
	opts := Options{Create: testCreate, Buckets: 1 << 6}
	sa, err := CreateStriped(r.conn(1, core.ModeRC(1<<20)), KindHashTable, "smg", 4, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Quiet keys live on stripes 0-1, busy keys on stripes 2-3.
	var quiet, busy []uint64
	for k := uint64(1); len(quiet) < 24 || len(busy) < 24; k++ {
		if sa.ShardOf(k) < 2 {
			quiet = append(quiet, k)
		} else {
			busy = append(busy, k)
		}
	}
	for _, k := range quiet[:20] { // the rest stay missing
		if err := sa.Put(k, val(int(k))); err != nil {
			t.Fatal(err)
		}
	}
	sb, err := OpenSharded([]*core.Conn{r.conn(2, core.ModeRC(1<<20))}, "smg", true, opts)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := OpenSharded([]*core.Conn{r.conn(3, core.ModeRC(1<<20))}, "smg", false, opts)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 150; i++ {
			if err := sb.Put(busy[i%len(busy)], val(5000+i)); err != nil {
				t.Errorf("concurrent writer: %v", err)
				return
			}
		}
	}()
	for writing := true; writing; {
		select {
		case <-done:
			writing = false // one more pass after the writer finished
		default:
		}
		for _, s := range []*Sharded{sr, sa} {
			vals, found, err := s.GetMulti(quiet)
			if err != nil {
				t.Fatal(err)
			}
			for i, k := range quiet {
				gv, gf, err := s.Get(k)
				if err != nil {
					t.Fatal(err)
				}
				if found[i] != gf || !bytes.Equal(vals[i], gv) {
					t.Fatalf("key %d: GetMulti (%q,%v) != Get (%q,%v)", k, vals[i], found[i], gv, gf)
				}
				if want := i < 20; found[i] != want || (want && !bytes.Equal(vals[i], val(int(k)))) {
					t.Fatalf("key %d: GetMulti (%q,%v), written=%v", k, vals[i], found[i], want)
				}
			}
		}
	}
}

// TestStripedTxPutMulti checks the one discipline branch under the 2PC
// surface: a cross-stripe transaction enrolls the involved stripes inside
// their ordered shared-lock set, and a fresh reader sees the whole batch.
func TestStripedTxPutMulti(t *testing.T) {
	r := newRig(t)
	c := r.conn(1, core.ModeRC(1<<20))
	opts := Options{Create: testCreate, Buckets: 1 << 6}
	s, err := CreateStriped(c, KindHashTable, "stx", 4, opts)
	if err != nil {
		t.Fatal(err)
	}
	tc, err := core.NewTxCoordinator(c, "stx.txc")
	if err != nil {
		t.Fatal(err)
	}
	keys := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	if !s.Spans(keys) {
		t.Fatal("probe keys must span stripes")
	}
	vals := make([][]byte, len(keys))
	for round := 0; round < 3; round++ {
		for i := range vals {
			vals[i] = val(100*round + i)
		}
		if err := s.TxPutMulti(tc, keys, vals); err != nil {
			t.Fatal(err)
		}
	}
	if err := tc.Quiesce(); err != nil {
		t.Fatal(err)
	}
	rd, err := OpenSharded([]*core.Conn{r.conn(2, core.ModeRC(1<<20))}, "stx", false, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		got, ok, err := rd.Get(k)
		if err != nil || !ok || !bytes.Equal(got, vals[i]) {
			t.Fatalf("key %d = %q found=%v err=%v, want %q", k, got, ok, err, vals[i])
		}
	}
}

// TestStripedOrderedAcquisitionStress is the -race contract test for
// deadlock-free ordered stripe acquisition: several writer front-ends
// issue randomized multi-stripe read-modify-write batches over
// overlapping key sets. Completion means no deadlock; the final counter
// values equaling the issued increments means no lost update — a stripe
// lock handoff that failed to carry the previous holder's state forward
// would drop increments.
func TestStripedOrderedAcquisitionStress(t *testing.T) {
	r := newRig(t)
	const (
		writers = 4
		keys    = 32
		rounds  = 60
	)
	cc := r.conn(1, core.ModeRC(1<<20))
	if _, err := CreateStriped(cc, KindHashTable, "stress", 8, Options{Create: testCreate, Buckets: 1 << 6}); err != nil {
		t.Fatal(err)
	}
	// Attach every writer before any operation starts (writer attach
	// requires a quiescent structure).
	ss := make([]*Sharded, writers)
	for w := 0; w < writers; w++ {
		c := r.conn(uint16(2+w), core.ModeRC(1<<20))
		s, err := OpenSharded([]*core.Conn{c}, "stress", true, Options{Create: testCreate, Buckets: 1 << 6})
		if err != nil {
			t.Fatal(err)
		}
		ss[w] = s
	}
	issued := make([][]uint64, writers) // per-writer increments per key
	for w := range issued {
		issued[w] = make([]uint64, keys)
	}
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + w)))
			batch := make([]uint64, 0, 4)
			for i := 0; i < rounds; i++ {
				batch = batch[:0]
				n := 2 + rng.Intn(3)
				for len(batch) < n {
					k := uint64(rng.Intn(keys))
					dup := false
					for _, b := range batch {
						if b == k {
							dup = true
						}
					}
					if !dup {
						batch = append(batch, k)
					}
				}
				if err := ss[w].AddMulti(batch, 1); err != nil {
					errs <- fmt.Errorf("writer %d round %d: %w", w, i, err)
					return
				}
				for _, k := range batch {
					issued[w][k]++
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	rd := r.conn(9, core.ModeRC(1<<20))
	sr, err := OpenSharded([]*core.Conn{rd}, "stress", false, Options{Create: testCreate, Buckets: 1 << 6})
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < keys; k++ {
		var want uint64
		for w := 0; w < writers; w++ {
			want += issued[w][k]
		}
		got, ok, err := sr.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		var v uint64
		if ok {
			v = binary.LittleEndian.Uint64(got)
		}
		if v != want {
			t.Errorf("key %d: counter %d, want %d (lost update)", k, v, want)
		}
	}
}

// TestMVMultiConcurrentWriters runs several lock-free MV writers against
// one shared tree: disjoint key ranges, concurrent goroutines, root
// publication by CAS. Every writer's last value per key must be visible
// to a plain MV reader afterwards — a lost CAS that was not re-executed
// would drop a whole path-copied version.
func TestMVMultiConcurrentWriters(t *testing.T) {
	r := newRig(t)
	cc := r.conn(1, core.ModeRC(1<<20))
	seedT, err := CreateMVBST(cc, "mvm", Options{Create: testCreate})
	if err != nil {
		t.Fatal(err)
	}
	if err := seedT.Put(1<<40, val(0)); err != nil { // non-empty root
		t.Fatal(err)
	}
	if err := seedT.Close(); err != nil {
		t.Fatal(err)
	}

	const writers = 3
	const perWriter = 24
	ms := make([]*MVMulti, writers)
	for w := 0; w < writers; w++ {
		c := r.conn(uint16(2+w), core.ModeRC(1<<20))
		m, err := OpenMVMulti(c, KindMVBST, "mvm", Options{Create: testCreate})
		if err != nil {
			t.Fatal(err)
		}
		ms[w] = m
	}
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				k := uint64(w*1000 + i)
				if err := ms[w].Put(k, val(w*1000+i)); err != nil {
					errs <- fmt.Errorf("writer %d put %d: %w", w, k, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	rd := r.conn(9, core.ModeRC(1<<20))
	tr, err := OpenMVBST(rd, "mvm", false, Options{Create: testCreate})
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			k := uint64(w*1000 + i)
			got, ok, err := tr.Get(k)
			if err != nil {
				t.Fatal(err)
			}
			if !ok || string(got) != string(val(w*1000+i)) {
				t.Fatalf("key %d = %q ok=%v, want %q", k, got, ok, val(w*1000+i))
			}
		}
	}
}
