// Package serve is the networked front-end service: a TCP server
// exposing get/put/getmulti/putmulti/tx over a cluster-backed set of
// persistent structures, with the overload-robustness plane a
// production fleet needs when traffic is open-loop — per-tenant
// token-bucket admission, a global concurrency limiter sized from the
// autotune controller's depth, a bounded run queue that turns LIFO
// under overload and prefers cheap reads, deadline propagation into the
// core retry loop, per-tenant breakers, and slow-client write timeouts.
//
// The wire format follows the logrec codec style: little-endian fixed
// headers, explicit magics, and a trailing CRC32-C, framed by a 4-byte
// length prefix. Everything is versioned behind a single magic byte so
// the protocol can evolve.
//
// Every request header carries a staleness budget (Request.StaleBudget)
// alongside the deadline budget: the maximum number of
// applied-transaction epochs a Get/GetMulti answer may trail the
// primary. A non-zero budget lets the server route the read to an NVM
// mirror replica whose measured lag fits the budget — off-loading the
// primary — while zero (the default) keeps the strict read-your-writes
// path. The server never serves beyond the budget: if every mirror is
// too stale the read falls back to the primary, so the budget is an
// upper bound on staleness, not a target. Client.GetStale sets it per
// call.
package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"

	"asymnvm/internal/arena"
)

// Frame and payload limits.
const (
	// MaxFrame bounds one request or response payload: the largest legal
	// frame is a putmulti of maxMultiKeys values at maxValueLen each.
	MaxFrame = 4 << 20
	// maxMultiKeys bounds getmulti/putmulti fan-out per request.
	maxMultiKeys = 1 << 12
	// maxValueLen bounds one value (matches the industry-trace ceiling).
	maxValueLen = 64 << 10
)

// ReqMagic and RespMagic distinguish payload kinds and catch framing
// desync.
const (
	ReqMagic  byte = 0xAE
	RespMagic byte = 0xEA
)

// Request opcodes. OpPutMulti is one group commit (ds.HashTable.PutMulti):
// the pairs are validated before the first put and become durable
// together in one fabric round trip, so StatusOK acknowledges all of them
// and any other status means none took effect (a crash tearing the commit
// flush itself aside — recovery completes or discards that like any
// unacknowledged write).
const (
	OpGet      uint8 = 1 // {key} -> {found, value}
	OpPut      uint8 = 2 // {key, value} -> {}
	OpGetMulti uint8 = 3 // {keys...} -> {found/value...}
	OpPutMulti uint8 = 4 // {keys..., values...} -> {} (all or nothing)
	OpTx       uint8 = 5 // {selector} -> {} (smallbank transaction)
	OpDrain    uint8 = 6 // {} -> {} (admin: flush + wait for replay)
	OpPing     uint8 = 7 // {} -> {} (liveness, bypasses the run queue)
)

// Response status codes.
const (
	StatusOK         uint8 = 0
	StatusNotFound   uint8 = 1 // tx selector had no target (reserved)
	StatusOverload   uint8 = 2 // admission rejected; RetryAfterNS is set
	StatusBreaker    uint8 = 3 // tenant breaker open; RetryAfterNS is set
	StatusDeadline   uint8 = 4 // the request's budget expired
	StatusBadRequest uint8 = 5 // malformed or oversized request
	StatusError      uint8 = 6 // execution failed server-side
	StatusMoved      uint8 = 7 // partition re-homed mid-request; retry re-resolves
)

// Errors reported by the codec.
var (
	ErrShort    = errors.New("serve: payload too short")
	ErrBadMagic = errors.New("serve: bad payload magic")
	ErrBadCRC   = errors.New("serve: payload checksum mismatch")
	ErrTooLarge = errors.New("serve: frame exceeds limit")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Request is one decoded client request.
type Request struct {
	Op       uint8
	ID       uint64 // client-chosen correlation id, echoed in the response
	Tenant   uint16 // admission-control principal
	BudgetNS uint64 // deadline budget from arrival; 0 = no deadline
	// StaleBudget is the read-staleness budget in applied-transaction
	// epochs: a Get/GetMulti may be served from an NVM mirror replica
	// whose view of the structure is at most this many epochs behind the
	// primary. 0 (the default) demands the primary's fresh view. Ignored
	// for writes and transactions.
	StaleBudget uint32

	Key  uint64   // Get/Put
	Val  []byte   // Put
	Keys []uint64 // GetMulti/PutMulti
	Vals [][]byte // PutMulti
	TxR  uint64   // Tx selector

	// The vectors of an earlier multi request, empty, while a decode into the
	// same struct (DecodeRequestInto) has left Keys and Vals nil.
	spareKeys []uint64
	spareVals [][]byte
}

// Response is one decoded server response.
type Response struct {
	Status       uint8
	ID           uint64
	RetryAfterNS uint64 // Overload/Breaker: hint before the next attempt

	Found  bool     // Get
	Val    []byte   // Get
	Founds []bool   // GetMulti
	Vals   [][]byte // GetMulti

	// As Request's: what Founds and Vals were, kept across a single-value
	// decode, which must leave Founds nil — AppendTo chooses the form by it.
	spareFounds []bool
	spareVals   [][]byte
}

// reqHeaderLen is magic + op + tenant + id + budget + staleness budget.
const reqHeaderLen = 1 + 1 + 2 + 8 + 8 + 4

// EncodedLen reports the unframed payload size (header + body + CRC).
func (r *Request) EncodedLen() int {
	n := reqHeaderLen + 4
	switch r.Op {
	case OpGet:
		n += 8
	case OpPut:
		n += 8 + 4 + len(r.Val)
	case OpGetMulti:
		n += 4 + 8*len(r.Keys)
	case OpPutMulti:
		n += 4 + 8*len(r.Keys)
		for _, v := range r.Vals {
			n += 4 + len(v)
		}
	case OpTx:
		n += 8
	}
	return n
}

// AppendTo appends the request payload (unframed) to dst and returns the
// extended slice. Given sufficient capacity it does not allocate.
func (r *Request) AppendTo(dst []byte) []byte {
	n := r.EncodedLen()
	base := len(dst)
	dst = slices.Grow(dst, n)[:base+n-4]
	buf := dst[base:]
	buf[0] = ReqMagic
	buf[1] = r.Op
	binary.LittleEndian.PutUint16(buf[2:], r.Tenant)
	binary.LittleEndian.PutUint64(buf[4:], r.ID)
	binary.LittleEndian.PutUint64(buf[12:], r.BudgetNS)
	binary.LittleEndian.PutUint32(buf[20:], r.StaleBudget)
	p := reqHeaderLen
	switch r.Op {
	case OpGet:
		binary.LittleEndian.PutUint64(buf[p:], r.Key)
	case OpPut:
		binary.LittleEndian.PutUint64(buf[p:], r.Key)
		binary.LittleEndian.PutUint32(buf[p+8:], uint32(len(r.Val)))
		copy(buf[p+12:], r.Val)
	case OpGetMulti:
		binary.LittleEndian.PutUint32(buf[p:], uint32(len(r.Keys)))
		p += 4
		for _, k := range r.Keys {
			binary.LittleEndian.PutUint64(buf[p:], k)
			p += 8
		}
	case OpPutMulti:
		binary.LittleEndian.PutUint32(buf[p:], uint32(len(r.Keys)))
		p += 4
		for _, k := range r.Keys {
			binary.LittleEndian.PutUint64(buf[p:], k)
			p += 8
		}
		for _, v := range r.Vals {
			binary.LittleEndian.PutUint32(buf[p:], uint32(len(v)))
			p += 4
			p += copy(buf[p:], v)
		}
	case OpTx:
		binary.LittleEndian.PutUint64(buf[p:], r.TxR)
	}
	return appendCRC(dst, base)
}

// Encode renders the request payload (unframed).
func (r *Request) Encode() []byte { return r.AppendTo(nil) }

// DecodeRequest parses a request payload.
func DecodeRequest(src []byte) (Request, error) {
	var r Request
	if err := DecodeRequestInto(&r, src, nil); err != nil {
		return Request{}, err
	}
	return r, nil
}

// DecodeRequestInto parses a request payload into r, reusing r's Keys
// and Vals slices — those of the last multi request decoded into r, however
// many single-key ones came between. When a is non-nil, value bytes are
// copied into the arena (valid until its Reset) instead of freshly
// allocated; either way the result never aliases src.
func DecodeRequestInto(r *Request, src []byte, a *arena.Arena) error {
	body, err := checkCRC(src, ReqMagic)
	if err != nil {
		return err
	}
	if len(body) < reqHeaderLen {
		return ErrShort
	}
	keys, vals := reuse(r.Keys, r.spareKeys), reuse(r.Vals, r.spareVals)
	*r = Request{
		Op:          body[1],
		Tenant:      binary.LittleEndian.Uint16(body[2:]),
		ID:          binary.LittleEndian.Uint64(body[4:]),
		BudgetNS:    binary.LittleEndian.Uint64(body[12:]),
		StaleBudget: binary.LittleEndian.Uint32(body[20:]),
		spareKeys:   keys,
		spareVals:   vals,
	}
	p := body[reqHeaderLen:]
	switch r.Op {
	case OpGet:
		if len(p) < 8 {
			return ErrShort
		}
		r.Key = binary.LittleEndian.Uint64(p)
	case OpPut:
		if len(p) < 12 {
			return ErrShort
		}
		r.Key = binary.LittleEndian.Uint64(p)
		vl := binary.LittleEndian.Uint32(p[8:])
		if vl > maxValueLen || len(p) < 12+int(vl) {
			return ErrShort
		}
		r.Val = copyVal(a, p[12:12+vl])
	case OpGetMulti, OpPutMulti:
		keys, rest, err := decodeKeys(keys, p)
		if err != nil {
			return err
		}
		r.Keys, r.spareKeys = keys, nil
		if r.Op == OpGetMulti {
			break
		}
		vals = slices.Grow(vals, len(keys))
		for range keys {
			if len(rest) < 4 {
				return ErrShort
			}
			vl := binary.LittleEndian.Uint32(rest)
			if vl > maxValueLen || len(rest) < 4+int(vl) {
				return ErrShort
			}
			vals = append(vals, copyVal(a, rest[4:4+vl]))
			rest = rest[4+vl:]
		}
		r.Vals, r.spareVals = vals, nil
	case OpTx:
		if len(p) < 8 {
			return ErrShort
		}
		r.TxR = binary.LittleEndian.Uint64(p)
	case OpDrain, OpPing:
		// No body.
	default:
		return fmt.Errorf("serve: unknown op %d", r.Op)
	}
	return nil
}

// reuse returns, emptied, the vector a decode builds in: the struct's own, or
// the spare an earlier decode set aside.
func reuse[T any](own, spare []T) []T {
	if own == nil {
		return spare
	}
	return own[:0]
}

// copyVal detaches value bytes from the wire buffer: into the arena when
// one is supplied, onto the heap otherwise. Empty values stay nil.
func copyVal(a *arena.Arena, src []byte) []byte {
	if len(src) == 0 {
		return nil
	}
	if a != nil {
		return a.Copy(src)
	}
	return append([]byte(nil), src...)
}

func decodeKeys(dst []uint64, p []byte) ([]uint64, []byte, error) {
	if len(p) < 4 {
		return nil, nil, ErrShort
	}
	n := binary.LittleEndian.Uint32(p)
	if n > maxMultiKeys || len(p) < 4+8*int(n) {
		return nil, nil, ErrShort
	}
	dst = slices.Grow(dst, int(n))
	for i := 0; i < int(n); i++ {
		dst = append(dst, binary.LittleEndian.Uint64(p[4+8*i:]))
	}
	return dst, p[4+8*int(n):], nil
}

// respHeaderLen is magic + status + id + retryAfter.
const respHeaderLen = 1 + 1 + 8 + 8

// EncodedLen reports the unframed payload size (header + body + CRC).
func (r *Response) EncodedLen() int {
	n := respHeaderLen + 4
	switch {
	case len(r.Vals) > 0 || r.Founds != nil:
		n += 4
		for i := range r.Founds {
			n += 1 + 4
			if r.Founds[i] {
				n += len(r.Vals[i])
			}
		}
	default:
		n += 1 + 4 + len(r.Val)
	}
	return n
}

// AppendTo appends the response payload (unframed) to dst and returns
// the extended slice. Given sufficient capacity it does not allocate.
func (r *Response) AppendTo(dst []byte) []byte {
	n := r.EncodedLen()
	base := len(dst)
	dst = slices.Grow(dst, n)[:base+n-4]
	buf := dst[base:]
	buf[0] = RespMagic
	buf[1] = r.Status
	binary.LittleEndian.PutUint64(buf[2:], r.ID)
	binary.LittleEndian.PutUint64(buf[10:], r.RetryAfterNS)
	p := respHeaderLen
	if len(r.Vals) > 0 || r.Founds != nil {
		binary.LittleEndian.PutUint32(buf[p:], uint32(len(r.Founds)))
		p += 4
		for i := range r.Founds {
			var v []byte
			buf[p] = 0 // dst may be reused; flag bytes must not leak stale data
			if r.Founds[i] {
				buf[p] = 1
				v = r.Vals[i]
			}
			p++
			binary.LittleEndian.PutUint32(buf[p:], uint32(len(v)))
			p += 4
			p += copy(buf[p:], v)
		}
	} else {
		buf[p] = 0
		if r.Found {
			buf[p] = 1
		}
		binary.LittleEndian.PutUint32(buf[p+1:], uint32(len(r.Val)))
		copy(buf[p+5:], r.Val)
	}
	return appendCRC(dst, base)
}

// Encode renders the response payload (unframed).
func (r *Response) Encode() []byte { return r.AppendTo(nil) }

// DecodeResponse parses a response payload.
func DecodeResponse(src []byte) (Response, error) {
	var r Response
	if err := DecodeResponseInto(&r, src, nil); err != nil {
		return Response{}, err
	}
	return r, nil
}

// DecodeResponseInto parses a response payload into r, reusing r's
// Founds and Vals slices as DecodeRequestInto does; value bytes go to the
// arena when a is non-nil.
func DecodeResponseInto(r *Response, src []byte, a *arena.Arena) error {
	body, err := checkCRC(src, RespMagic)
	if err != nil {
		return err
	}
	if len(body) < respHeaderLen {
		return ErrShort
	}
	founds, vals := reuse(r.Founds, r.spareFounds), reuse(r.Vals, r.spareVals)
	*r = Response{
		Status:       body[1],
		ID:           binary.LittleEndian.Uint64(body[2:]),
		RetryAfterNS: binary.LittleEndian.Uint64(body[10:]),
		spareFounds:  founds,
		spareVals:    vals,
	}
	p := body[respHeaderLen:]
	if len(p) >= 5 && len(p) == 5+int(binary.LittleEndian.Uint32(p[1:])) {
		// Single-value form.
		r.Found = p[0] == 1
		r.Val = copyVal(a, p[5:])
		return nil
	}
	if len(p) < 4 {
		return ErrShort
	}
	n := binary.LittleEndian.Uint32(p)
	if n > maxMultiKeys {
		return ErrShort
	}
	p = p[4:]
	founds = slices.Grow(founds, int(n))
	vals = slices.Grow(vals, int(n))
	for i := uint32(0); i < n; i++ {
		if len(p) < 5 {
			return ErrShort
		}
		found := p[0] == 1
		vl := binary.LittleEndian.Uint32(p[1:])
		if vl > maxValueLen || len(p) < 5+int(vl) {
			return ErrShort
		}
		founds = append(founds, found)
		vals = append(vals, copyVal(a, p[5:5+vl]))
		p = p[5+vl:]
	}
	r.Founds, r.Vals = founds, vals
	r.spareFounds, r.spareVals = nil, nil
	return nil
}

// appendCRC checksums dst[start:] (the payload appended so far) and
// appends the 4-byte trailer.
func appendCRC(dst []byte, start int) []byte {
	var c [4]byte
	binary.LittleEndian.PutUint32(c[:], crc32.Checksum(dst[start:], castagnoli))
	return append(dst, c[:]...)
}

func checkCRC(src []byte, magic byte) ([]byte, error) {
	if len(src) < 5 {
		return nil, ErrShort
	}
	if src[0] != magic {
		return nil, ErrBadMagic
	}
	body, sum := src[:len(src)-4], binary.LittleEndian.Uint32(src[len(src)-4:])
	if crc32.Checksum(body, castagnoli) != sum {
		return nil, ErrBadCRC
	}
	return body, nil
}

// WriteFrame writes one length-prefixed payload.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrame {
		return ErrTooLarge
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// AppendFramed appends the length prefix plus the request payload to dst
// in one pass — no intermediate Encode buffer, one Write on the wire.
func (r *Request) AppendFramed(dst []byte) ([]byte, error) {
	return finishFrame(r.AppendTo(reserveFrame(dst)), len(dst))
}

// AppendFramed appends the length prefix plus the response payload to
// dst in one pass.
func (r *Response) AppendFramed(dst []byte) ([]byte, error) {
	return finishFrame(r.AppendTo(reserveFrame(dst)), len(dst))
}

// reserveFrame appends a zeroed 4-byte slot for the length prefix.
func reserveFrame(dst []byte) []byte { return append(dst, 0, 0, 0, 0) }

// finishFrame backfills the length prefix reserved at base.
func finishFrame(dst []byte, base int) ([]byte, error) {
	n := len(dst) - base - 4
	if n > MaxFrame {
		return dst[:base], ErrTooLarge
	}
	binary.LittleEndian.PutUint32(dst[base:], uint32(n))
	return dst, nil
}

// ReadFrame reads one length-prefixed payload, bounding its size.
func ReadFrame(r io.Reader) ([]byte, error) {
	return ReadFrameInto(r, nil)
}

// ReadFrameInto reads one length-prefixed payload into buf (grown as
// needed), returning the payload slice. The returned slice aliases buf's
// backing array and is valid until the next call with the same buf —
// callers that queue the payload must decode (and detach) first. The length
// prefix is read into buf too, ahead of the payload that overwrites it.
func ReadFrameInto(r io.Reader, buf []byte) ([]byte, error) {
	if cap(buf) < 4 {
		buf = make([]byte, 4)
	}
	if _, err := io.ReadFull(r, buf[:4]); err != nil {
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(buf[:4]))
	if n > MaxFrame {
		return nil, ErrTooLarge
	}
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	payload := buf[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}
