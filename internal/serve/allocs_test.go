package serve

import (
	"bytes"
	"testing"

	"asymnvm/internal/arena"
)

// CI gate for the wire codec's zero-alloc contract: framing a request
// and a response into reused buffers and decoding them back through an
// arena must not touch the heap in steady state. AllocsPerRun is
// deterministic, so this runs in plain `go test`; wall-clock throughput
// is bench-cpu's job.

func TestRequestFramingZeroAllocs(t *testing.T) {
	val := make([]byte, 100)
	for i := range val {
		val[i] = byte(i)
	}
	req := Request{Op: OpPut, ID: 42, Tenant: 7, BudgetNS: 1e6, Key: 99, Val: val}
	var (
		buf []byte
		dec Request
		a   arena.Arena
		err error
	)
	// Warm: size buf, dec's slices, and the arena chunk.
	if buf, err = req.AppendFramed(buf[:0]); err != nil {
		t.Fatal(err)
	}
	if err := DecodeRequestInto(&dec, buf[4:], &a); err != nil {
		t.Fatal(err)
	}
	a.Reset()

	allocs := testing.AllocsPerRun(200, func() {
		buf, err = req.AppendFramed(buf[:0])
		if err != nil {
			t.Fatal(err)
		}
		if err := DecodeRequestInto(&dec, buf[4:], &a); err != nil {
			t.Fatal(err)
		}
		a.Reset()
	})
	if allocs != 0 {
		t.Errorf("request frame+decode round trip allocates %.1f/op, want 0", allocs)
	}
	if dec.Op != req.Op || dec.ID != req.ID || dec.Key != req.Key || string(dec.Val) != string(val) {
		t.Fatalf("decode mismatch: %+v", dec)
	}
}

func TestMultiRequestFramingZeroAllocs(t *testing.T) {
	req := Request{Op: OpPutMulti, ID: 1, Keys: []uint64{1, 2, 3}, Vals: [][]byte{{0xA}, {0xB, 0xB}, {0xC}}}
	var (
		buf []byte
		dec Request
		a   arena.Arena
		err error
	)
	if buf, err = req.AppendFramed(buf[:0]); err != nil {
		t.Fatal(err)
	}
	if err := DecodeRequestInto(&dec, buf[4:], &a); err != nil {
		t.Fatal(err)
	}
	a.Reset()

	allocs := testing.AllocsPerRun(200, func() {
		buf, err = req.AppendFramed(buf[:0])
		if err != nil {
			t.Fatal(err)
		}
		if err := DecodeRequestInto(&dec, buf[4:], &a); err != nil {
			t.Fatal(err)
		}
		a.Reset()
	})
	if allocs != 0 {
		t.Errorf("putmulti frame+decode round trip allocates %.1f/op, want 0", allocs)
	}
	if len(dec.Keys) != 3 || len(dec.Vals) != 3 || string(dec.Vals[1]) != "\x0b\x0b" {
		t.Fatalf("decode mismatch: %+v", dec)
	}
}

func TestResponseFramingZeroAllocs(t *testing.T) {
	val := make([]byte, 100)
	resp := Response{Status: StatusOK, ID: 42, Found: true, Val: val}
	var (
		buf []byte
		dec Response
		a   arena.Arena
		err error
	)
	if buf, err = resp.AppendFramed(buf[:0]); err != nil {
		t.Fatal(err)
	}
	if err := DecodeResponseInto(&dec, buf[4:], &a); err != nil {
		t.Fatal(err)
	}
	a.Reset()

	allocs := testing.AllocsPerRun(200, func() {
		buf, err = resp.AppendFramed(buf[:0])
		if err != nil {
			t.Fatal(err)
		}
		if err := DecodeResponseInto(&dec, buf[4:], &a); err != nil {
			t.Fatal(err)
		}
		a.Reset()
	})
	if allocs != 0 {
		t.Errorf("response frame+decode round trip allocates %.1f/op, want 0", allocs)
	}
	if !dec.Found || len(dec.Val) != 100 || dec.ID != 42 {
		t.Fatalf("decode mismatch: %+v", dec)
	}
}

// TestAppendFramedMatchesWriteFrame pins that the one-pass framed
// encoding is byte-identical to Encode + WriteFrame.
func TestAppendFramedMatchesWriteFrame(t *testing.T) {
	reqs := []Request{
		{Op: OpGet, ID: 1, Key: 5},
		{Op: OpPut, ID: 2, Key: 5, Val: []byte("hello")},
		{Op: OpGetMulti, ID: 3, Keys: []uint64{1, 2}},
		{Op: OpPing, ID: 4},
	}
	for _, req := range reqs {
		framed, err := req.AppendFramed(nil)
		if err != nil {
			t.Fatal(err)
		}
		var want frameSink
		if err := WriteFrame(&want, req.Encode()); err != nil {
			t.Fatal(err)
		}
		if string(framed) != string(want) {
			t.Fatalf("op %d: framed bytes diverge from WriteFrame", req.Op)
		}
	}
	resp := Response{Status: StatusOK, ID: 9, Founds: []bool{true, false}, Vals: [][]byte{[]byte("x"), nil}}
	framed, err := resp.AppendFramed(nil)
	if err != nil {
		t.Fatal(err)
	}
	var want frameSink
	if err := WriteFrame(&want, resp.Encode()); err != nil {
		t.Fatal(err)
	}
	if string(framed) != string(want) {
		t.Fatal("response framed bytes diverge from WriteFrame")
	}
}

type frameSink []byte

func (s *frameSink) Write(p []byte) (int, error) {
	*s = append(*s, p...)
	return len(p), nil
}

// TestAppendKeepsCapacity pins that encoding into a recycled buffer never
// trims it: a large, a small and again a large frame built in one buffer
// share its backing array and allocate nothing. (The encoders once returned
// the buffer with its capacity clamped to the frame, so every small frame
// cost the next large one a new buffer.)
func TestAppendKeepsCapacity(t *testing.T) {
	val := make([]byte, 400)
	large := Response{Status: StatusOK, ID: 1, Found: true, Val: val}
	small := Response{Status: StatusOK, ID: 2}
	put := Request{Op: OpPut, ID: 3, Key: 9, Val: val}
	get := Request{Op: OpGet, ID: 4, Key: 9}
	buf, err := large.AppendFramed(make([]byte, 0, 512))
	if err != nil {
		t.Fatal(err)
	}
	first := &buf[0]
	encode := func(f interface{ AppendFramed([]byte) ([]byte, error) }) {
		if buf, err = f.AppendFramed(buf[:0]); err != nil {
			t.Fatal(err)
		}
		if &buf[0] != first || cap(buf) != 512 {
			t.Fatalf("a %d-byte frame moved the buffer or left it cap %d, want 512", len(buf), cap(buf))
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		encode(&large)
		encode(&small)
		encode(&large)
		encode(&put)
		encode(&get)
		encode(&put)
	})
	if allocs != 0 {
		t.Errorf("large, small, large into one buffer allocates %.1f/op, want 0", allocs)
	}
}

// TestDecodeKeepsVectors pins that the decoders hold on to the Keys, Vals and
// Founds vectors across the single-key requests between two multi requests:
// every kind of the serving mix decoded in turn into one struct, nothing
// allocated after the first round — and a single-key decode still leaves
// the vectors nil to its user, which is what selects a response's wire form.
func TestDecodeKeepsVectors(t *testing.T) {
	val := []byte("sixty-four bytes, or thereabouts: what the benchmark's values are")
	keys := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	vals := make([][]byte, len(keys))
	founds := make([]bool, len(keys))
	for i := range vals {
		vals[i], founds[i] = val, true
	}
	reqs := []Request{
		{Op: OpGet, Key: 1},
		{Op: OpGetMulti, Keys: keys},
		{Op: OpPut, Key: 1, Val: val},
		{Op: OpPutMulti, Keys: keys, Vals: vals},
	}
	resps := []Response{
		{Status: StatusOK, Found: true, Val: val},
		{Status: StatusOK, Founds: founds, Vals: vals},
		{Status: StatusOK},
		{Status: StatusOK},
	}
	var wire [][]byte
	for i := range reqs {
		wire = append(wire, reqs[i].Encode(), resps[i].Encode())
	}
	var (
		req  Request
		resp Response
		a    arena.Arena
	)
	round := func() {
		for i := range reqs {
			a.Reset()
			if err := DecodeRequestInto(&req, wire[2*i], &a); err != nil {
				t.Fatal(err)
			}
			if len(req.Keys) != len(reqs[i].Keys) || len(req.Vals) != len(reqs[i].Vals) || (req.Keys == nil) != (reqs[i].Keys == nil) {
				t.Fatalf("op %d decoded with %d keys (nil=%v), %d values", req.Op, len(req.Keys), req.Keys == nil, len(req.Vals))
			}
			if err := DecodeResponseInto(&resp, wire[2*i+1], &a); err != nil {
				t.Fatal(err)
			}
			if len(resp.Founds) != len(resps[i].Founds) || (resp.Founds == nil) != (resps[i].Founds == nil) || (resp.Vals == nil) != (resps[i].Vals == nil) {
				t.Fatalf("response to op %d decoded with %d founds (nil=%v)", reqs[i].Op, len(resp.Founds), resp.Founds == nil)
			}
		}
	}
	round()
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Errorf("get, getmulti, put, putmulti decoded into one struct allocate %.1f/round, want 0", allocs)
	}
}

// TestReadFrameIntoZeroAllocs: the length prefix is read into the caller's
// buffer, so a frame read into a kept buffer allocates nothing.
func TestReadFrameIntoZeroAllocs(t *testing.T) {
	framed, err := (&Request{Op: OpPut, Key: 1, Val: make([]byte, 64)}).AppendFramed(nil)
	if err != nil {
		t.Fatal(err)
	}
	src := bytes.NewReader(framed)
	buf := make([]byte, 0, 256)
	allocs := testing.AllocsPerRun(100, func() {
		src.Reset(framed)
		payload, err := ReadFrameInto(src, buf)
		if err != nil || !bytes.Equal(payload, framed[4:]) {
			t.Fatalf("read %d bytes, err=%v", len(payload), err)
		}
	})
	if allocs != 0 {
		t.Errorf("ReadFrameInto a kept buffer allocates %.1f/frame, want 0", allocs)
	}
}
