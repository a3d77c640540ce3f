package serve

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"asymnvm/internal/core"
)

// ---- who owns a request's bytes ----

// sliceQueue is the run queue as it was before the rings — append to push,
// reslice to pop, an O(n) copy to push in front — kept as the reference the
// rings are checked against.
type sliceQueue struct {
	reads, writes []*Item
	cap, lifoAt   int
}

func (q *sliceQueue) push(it *Item) bool {
	n := len(q.reads) + len(q.writes)
	if n >= q.cap {
		return false
	}
	band := &q.writes
	if it.Read {
		band = &q.reads
	}
	if n >= q.lifoAt {
		*band = append(*band, nil)
		copy((*band)[1:], *band)
		(*band)[0] = it
	} else {
		*band = append(*band, it)
	}
	return true
}

func (q *sliceQueue) pop() *Item {
	for _, band := range []*[]*Item{&q.reads, &q.writes} {
		if len(*band) > 0 {
			it := (*band)[0]
			*band = (*band)[1:]
			return it
		}
	}
	return nil
}

// TestRunQueueRingsMatchSlices drives the rings and the slice queue they
// replaced with the same random pushes and pops — in bursts, so that
// occupancy crosses the LIFO watermark in both directions, fills the queue
// and empties it — and requires the same answer from every call.
func TestRunQueueRingsMatchSlices(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capacity := 4 + rng.Intn(60)
		frac := 0.25 + rng.Float64()/2
		q := NewRunQueue(capacity, frac)
		ref := &sliceQueue{cap: q.cap, lifoAt: q.lifoAt}
		pushing, lifo := true, 0
		for i := 0; i < 10000; i++ {
			if rng.Intn(capacity) == 0 {
				pushing = !pushing
			}
			if rng.Intn(4) > 0 == pushing {
				it := &Item{Read: rng.Intn(3) > 0}
				if q.Len() >= q.lifoAt && q.Len() < q.cap {
					lifo++
				}
				if got, want := q.Push(it), ref.push(it); got != want {
					t.Fatalf("seed %d step %d: push at occupancy %d is %v, the slices' %v", seed, i, q.Len(), got, want)
				}
			} else if got, want := q.Pop(), ref.pop(); got != want {
				t.Fatalf("seed %d step %d: popped a different item at occupancy %d", seed, i, q.Len())
			}
			if n := len(ref.reads) + len(ref.writes); q.Len() != n {
				t.Fatalf("seed %d step %d: occupancy %d, the slices' %d", seed, i, q.Len(), n)
			}
		}
		if lifo < 1000 {
			t.Fatalf("seed %d: %d pushes in the LIFO regime of 10 000 steps: the watermark was hardly crossed", seed, lifo)
		}
		for _, band := range []*itemRing{&q.reads, &q.writes} {
			for band.n > 0 {
				band.popFront()
			}
			for i, it := range band.slots {
				if it != nil {
					t.Fatalf("seed %d: slot %d of an empty band still holds an item", seed, i)
				}
			}
		}
	}
}

// TestFrameListRecycles pins the typed frame list: a frame comes back with
// the capacity it left with, one too small for its taker is dropped for a
// larger, and the list keeps no more than its bound.
func TestFrameListRecycles(t *testing.T) {
	s := New(Backends{FE: newRig(t).fe}, Options{QueueCap: 2})
	a := s.frame(100)
	if len(a) != 0 || cap(a) != minFrameCap {
		t.Fatalf("first frame: len %d cap %d, want 0 and %d", len(a), cap(a), minFrameCap)
	}
	a = append(a, "reply"...)
	s.recycle(a)
	if b := s.frame(minFrameCap); len(b) != 0 || &b[:1][0] != &a[0] {
		t.Fatal("a recycled frame did not come back empty for a taker it fits")
	}
	s.recycle(a)
	if b := s.frame(4 * minFrameCap); cap(b) < 4*minFrameCap {
		t.Fatalf("frame for %d bytes has cap %d", 4*minFrameCap, cap(b))
	}
	for i := 0; i < 5; i++ {
		s.recycle(make([]byte, 0, minFrameCap))
	}
	if n := len(s.frames.free); n != 2 {
		t.Fatalf("list holds %d frames, bound 2", n)
	}
}

// pathMix is the benchmark's serve-mixed request mix: 14 gets, 4 puts, one
// multi-get and one multi-put of 8 keys in 20, 64-byte values.
type pathMix struct {
	x    uint64
	keys uint64
	val  []byte
	mkey []uint64
	mval [][]byte
}

func newPathMix(keys uint64) *pathMix {
	m := &pathMix{x: 0x9E3779B97F4A7C15, keys: keys, val: make([]byte, 64), mkey: make([]uint64, 8), mval: make([][]byte, 8)}
	for i := range m.mval {
		m.mval[i] = make([]byte, 64)
	}
	return m
}

func (m *pathMix) rand() uint64 {
	m.x ^= m.x << 13
	m.x ^= m.x >> 7
	m.x ^= m.x << 17
	return m.x
}

// next draws one request; its slices are the mix's, good until the next draw.
func (m *pathMix) next() Request {
	key := func() uint64 { return m.rand()%m.keys + 1 }
	switch p := m.rand() % 20; {
	case p < 14:
		return Request{Op: OpGet, Key: key()}
	case p < 18:
		return Request{Op: OpPut, Key: key(), Val: m.val}
	default:
		for i := range m.mkey {
			m.mkey[i] = key()
		}
		if p == 18 {
			return Request{Op: OpGetMulti, Keys: m.mkey}
		}
		return Request{Op: OpPutMulti, Keys: m.mkey, Vals: m.mval}
	}
}

// pathRig is a populated hash table whose cache holds all of it, the
// benchmark's shape.
func pathRig(t *testing.T, keys uint64) *rig {
	t.Helper()
	r := newRigMode(t, core.ModeRC(int64(4*keys*(24+64))), 0)
	val := make([]byte, 64)
	for k := uint64(1); k <= keys; k++ {
		if err := r.kv.Put(k, val); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.kv.Drain(); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestRequestPathAllocs pins the whole request path, socket to socket: a real
// server on loopback, one client, the benchmark's mix. What is counted is
// every allocation of the process — the connection's reader and writer, the
// executor, the structure and the framework under it, the client, the
// replayer, the runtime's own — over 2 000 requests after a warm-up that
// brings every recycled buffer to its size.
func TestRequestPathAllocs(t *testing.T) {
	const keys, warm, measured = 1024, 8000, 2000
	r := pathRig(t, keys)
	s := startServer(t, r, DefaultOptions())
	c := dial(t, s, 1)
	mix := newPathMix(keys)
	feSt, bkSt := r.fe.Stats(), r.clu.Backends[0].Stats()
	do := func() {
		// Let the replayer catch up first, as the benchmark does: how far the
		// overlay grows before a prune retires it — and so how many entries it
		// ever needs — would otherwise follow the host's scheduling.
		for bkSt.TxReplayed.Load() < feSt.TxCommits.Load() {
			runtime.Gosched()
		}
		req := mix.next()
		resp, err := c.Do(req)
		if err != nil || resp.Status != StatusOK {
			t.Fatalf("op %d: status %d err=%v", req.Op, resp.Status, err)
		}
		switch req.Op {
		case OpGet:
			if !resp.Found || len(resp.Val) != 64 {
				t.Fatalf("get %d: found=%v, %d bytes", req.Key, resp.Found, len(resp.Val))
			}
		case OpGetMulti:
			if len(resp.Founds) != 8 || len(resp.Vals) != 8 || !resp.Founds[7] || len(resp.Vals[7]) != 64 {
				t.Fatalf("multi-get: %d founds, %d values", len(resp.Founds), len(resp.Vals))
			}
		}
	}
	for i := 0; i < warm; i++ {
		do()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < measured; i++ {
		do()
	}
	runtime.ReadMemStats(&after)
	perReq := float64(after.Mallocs-before.Mallocs) / measured
	t.Logf("%d allocations over %d requests: %.4f per request", after.Mallocs-before.Mallocs, measured, perReq)
	if perReq > 0.05 {
		t.Errorf("the request path allocates %.3f per request, ceiling 0.05", perReq)
	}
}

// TestPipelinedRequestsPoisoned is the lifetime check of the recycled items
// and frames, made to run under -race: 4 connections, each writing 32
// requests before it reads a response, puts and multi-puts whose value bytes
// encode (key, sequence), and every get checked against the last put its
// connection had acknowledged. The server overwrites every item's value
// buffers and every frame with 0xDB the moment it is released, so a reply or
// an executor that still reads a released buffer — or two requests sharing
// one — shows as a wrong value, not as luck.
func TestPipelinedRequestsPoisoned(t *testing.T) {
	const conns, keysPerConn, rounds, depth = 4, 16, 24, 32
	r := pathRig(t, conns*keysPerConn)
	opts := DefaultOptions()
	// The test is of lifetimes, not of shedding.
	opts.QueueCap = 2 * conns * depth
	opts.Admission.CapacityFn = func() int { return 2 * conns * depth }
	s := New(r.backends(), opts)
	s.poison = true
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	value := func(key, seq uint64) []byte {
		v := make([]byte, 40)
		for i := 0; i < len(v); i += 8 {
			binary.LittleEndian.PutUint64(v[i:], key<<32|seq)
		}
		return v
	}
	var wg sync.WaitGroup
	for ci := 0; ci < conns; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c, err := Dial(s.Addr().String(), uint16(ci+1))
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			rng := rand.New(rand.NewSource(int64(ci)))
			keys := make([]uint64, keysPerConn)
			for i := range keys {
				keys[i] = uint64(ci*keysPerConn + i + 1)
			}
			last := map[uint64]uint64{} // key -> sequence of its last acknowledged put
			check := func(key uint64, got []byte, found bool) {
				want := make([]byte, 64) // the population's value
				if seq, ok := last[key]; ok {
					want = value(key, seq)
				}
				if !found || !bytes.Equal(got, want) {
					t.Errorf("conn %d key %d: found=%v value %x, want %x", ci, key, found, got, want)
				}
			}
			for seq := uint64(1); seq <= rounds && !t.Failed(); seq++ {
				// Pipelined requests may execute in any order, so a round
				// writes each of half the keys once — 4 puts, 2 multi-puts —
				// and reads only the other half: 22 gets, 4 multi-gets.
				rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
				w, rd := keys[:keysPerConn/2], keys[keysPerConn/2:]
				reqs := make([]Request, 0, depth)
				for _, k := range w[:4] {
					reqs = append(reqs, Request{Op: OpPut, Key: k, Val: value(k, seq)})
				}
				for _, ks := range [][]uint64{w[4:6], w[6:8]} {
					reqs = append(reqs, Request{Op: OpPutMulti, Keys: ks, Vals: [][]byte{value(ks[0], seq), value(ks[1], seq)}})
				}
				for len(reqs) < depth-4 {
					reqs = append(reqs, Request{Op: OpGet, Key: rd[rng.Intn(len(rd))]})
				}
				for len(reqs) < depth {
					i := rng.Intn(len(rd) - 2)
					reqs = append(reqs, Request{Op: OpGetMulti, Keys: rd[i : i+3]})
				}
				rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
				var wire []byte
				for i := range reqs {
					reqs[i].ID, reqs[i].Tenant = uint64(i+1), c.tenant
					if wire, err = reqs[i].AppendFramed(wire); err != nil {
						t.Error(err)
						return
					}
				}
				if _, err := c.nc.Write(wire); err != nil {
					t.Error(err)
					return
				}
				for range reqs {
					payload, err := ReadFrame(c.r)
					if err != nil {
						t.Error(err)
						return
					}
					resp, err := DecodeResponse(payload)
					if err != nil || resp.Status != StatusOK || resp.ID == 0 || resp.ID > depth {
						t.Errorf("conn %d: response %d: status %d err=%v", ci, resp.ID, resp.Status, err)
						return
					}
					switch req := &reqs[resp.ID-1]; req.Op {
					case OpGet:
						check(req.Key, resp.Val, resp.Found)
					case OpGetMulti:
						for i, k := range req.Keys {
							check(k, resp.Vals[i], resp.Founds[i])
						}
					}
				}
				for _, k := range w {
					last[k] = seq
				}
			}
		}(ci)
	}
	wg.Wait()
}
