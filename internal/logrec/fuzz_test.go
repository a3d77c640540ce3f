package logrec

import (
	"bytes"
	"testing"
)

// seedTx builds a representative committed transaction record.
func seedTx(abs uint64) *TxRecord {
	return &TxRecord{
		DSSlot:  3,
		Abs:     abs,
		CoverOp: 512,
		Entries: []MemEntry{
			{Flag: FlagInline, Addr: 0x0001_0000_2000, Len: 4, Value: []byte("abcd")},
			{Flag: FlagOpRef, Addr: 0x0001_0000_3000, Len: 16, OpAbs: 448, SrcOff: 8},
			{Flag: FlagInline, Addr: 8, Len: 0, Value: nil},
		},
	}
}

func seedOp(abs uint64) *OpRecord {
	return &OpRecord{DSSlot: 7, OpType: 1, Abs: abs, Params: []byte("key0val0val0val0")}
}

// FuzzDecodeTx hammers the transaction decoder with arbitrary bytes. The
// decoder must never panic or read out of bounds, must never consume more
// than it was given, and anything it accepts must survive an
// encode→decode round trip unchanged.
func FuzzDecodeTx(f *testing.F) {
	f.Add(seedTx(96).Encode(), uint64(96))
	f.Add(seedTx(0).Encode(), uint64(0))
	// A truncated record, a flipped magic, and a stale-offset record.
	enc := seedTx(96).Encode()
	f.Add(enc[:len(enc)-3], uint64(96))
	bad := append([]byte(nil), enc...)
	bad[0] ^= 0xFF
	f.Add(bad, uint64(96))
	f.Add(enc, uint64(97))

	f.Fuzz(func(t *testing.T, data []byte, abs uint64) {
		rec, n, err := DecodeTx(data, abs)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("decode consumed %d of %d bytes", n, len(data))
		}
		if rec.Abs != abs {
			t.Fatalf("accepted record with Abs=%d, expected %d", rec.Abs, abs)
		}
		for _, e := range rec.Entries {
			if e.Flag == FlagInline && int(e.Len) != len(e.Value) {
				t.Fatalf("inline entry Len=%d but %d value bytes", e.Len, len(e.Value))
			}
		}
		re := rec.Encode()
		rec2, n2, err := DecodeTx(re, abs)
		if err != nil {
			t.Fatalf("re-encoded accepted record does not decode: %v", err)
		}
		if n2 != len(re) {
			t.Fatalf("re-decode consumed %d of %d bytes", n2, len(re))
		}
		if rec2.DSSlot != rec.DSSlot || rec2.Abs != rec.Abs || rec2.CoverOp != rec.CoverOp || len(rec2.Entries) != len(rec.Entries) {
			t.Fatalf("round trip changed the record: %+v vs %+v", rec, rec2)
		}
		for i := range rec.Entries {
			a, b := rec.Entries[i], rec2.Entries[i]
			if a.Flag != b.Flag || a.Addr != b.Addr || a.Len != b.Len ||
				a.OpAbs != b.OpAbs || a.SrcOff != b.SrcOff || !bytes.Equal(a.Value, b.Value) {
				t.Fatalf("round trip changed entry %d: %+v vs %+v", i, a, b)
			}
		}
	})
}

// FuzzDecodeCkpt hammers the checkpoint decoder. Seeds cover a valid
// round trip, a truncated slot, a flipped magic byte, and a stale-epoch
// record (the decoder must parse it — epoch plausibility is the back-end's
// check, not the codec's). Anything accepted must round-trip unchanged and
// re-validate.
func FuzzDecodeCkpt(f *testing.F) {
	valid := seedCkpt().Encode()
	f.Add(valid)
	f.Add(valid[:ckptWireLen-5]) // torn: record cut mid-payload
	bad := append([]byte(nil), valid...)
	bad[0] ^= 0xFF
	f.Add(bad) // flipped magic
	stale := seedCkpt()
	stale.Epoch = ^uint64(0) // epoch from the far future: codec-valid, caller-stale
	f.Add(stale.Encode())
	f.Add(make([]byte, CkptSlotSize)) // zeroed (never-written) slot

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := DecodeCkpt(data)
		if err != nil {
			return
		}
		re := rec.Encode()
		if len(re) != CkptSlotSize {
			t.Fatalf("re-encode length %d, want %d", len(re), CkptSlotSize)
		}
		rec2, err := DecodeCkpt(re)
		if err != nil {
			t.Fatalf("re-encoded accepted record does not decode: %v", err)
		}
		if rec2 != rec {
			t.Fatalf("round trip changed the record: %+v vs %+v", rec, rec2)
		}
	})
}

// FuzzDecodeMig hammers the migration stream decoder. Seeds cover a valid
// snapshot record, a torn record, a flipped magic, a stale (replayed)
// sequence number, and a payload-carrying cutover marker — all the ways a
// stream frame goes wrong in flight. Anything accepted must round-trip
// unchanged.
func FuzzDecodeMig(f *testing.F) {
	valid := seedMig(7).Encode()
	f.Add(valid, uint64(7))
	f.Add(valid[:len(valid)-3], uint64(7)) // torn: record cut mid-checksum
	bad := append([]byte(nil), valid...)
	bad[0] ^= 0xFF
	f.Add(bad, uint64(7))   // flipped magic
	f.Add(valid, uint64(8)) // replayed: stale sequence number
	cut := &MigRecord{Kind: MigCutover, Slot: 5, Seq: 9, Epoch: 4, Payload: []byte("x")}
	f.Add(cut.Encode(), uint64(9)) // cutover smuggling payload bytes

	f.Fuzz(func(t *testing.T, data []byte, seq uint64) {
		rec, n, err := DecodeMig(data, seq)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("decode consumed %d of %d bytes", n, len(data))
		}
		if rec.Seq != seq {
			t.Fatalf("accepted record with Seq=%d, expected %d", rec.Seq, seq)
		}
		if rec.Kind < MigSnap || rec.Kind > MigCutover {
			t.Fatalf("accepted record with kind %d", rec.Kind)
		}
		if rec.Kind == MigCutover && len(rec.Payload) != 0 {
			t.Fatalf("accepted cutover with %d payload bytes", len(rec.Payload))
		}
		if n != rec.EncodedLen() {
			t.Fatalf("consumed %d bytes but EncodedLen says %d", n, rec.EncodedLen())
		}
		re := rec.Encode()
		rec2, n2, err := DecodeMig(re, seq)
		if err != nil || n2 != len(re) {
			t.Fatalf("re-encoded accepted record does not decode: n=%d err=%v", n2, err)
		}
		if rec2.Kind != rec.Kind || rec2.Slot != rec.Slot || rec2.Seq != rec.Seq ||
			rec2.Epoch != rec.Epoch || !bytes.Equal(rec2.Payload, rec.Payload) {
			t.Fatalf("round trip changed the record: %+v vs %+v", rec, rec2)
		}
	})
}

// FuzzDecodeOp does the same for operation records.
func FuzzDecodeOp(f *testing.F) {
	f.Add(seedOp(448).Encode(), uint64(448))
	f.Add(seedOp(0).Encode(), uint64(0))
	enc := seedOp(448).Encode()
	f.Add(enc[:len(enc)-1], uint64(448))
	bad := append([]byte(nil), enc...)
	bad[len(bad)-1] ^= 0x01 // corrupt the checksum
	f.Add(bad, uint64(448))
	f.Add(enc, uint64(449))

	f.Fuzz(func(t *testing.T, data []byte, abs uint64) {
		rec, n, err := DecodeOp(data, abs)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("decode consumed %d of %d bytes", n, len(data))
		}
		if rec.Abs != abs {
			t.Fatalf("accepted record with Abs=%d, expected %d", rec.Abs, abs)
		}
		if n != rec.EncodedLen() {
			t.Fatalf("consumed %d bytes but EncodedLen says %d", n, rec.EncodedLen())
		}
		re := rec.Encode()
		rec2, n2, err := DecodeOp(re, abs)
		if err != nil || n2 != len(re) {
			t.Fatalf("re-encoded accepted record does not decode: n=%d err=%v", n2, err)
		}
		if rec2.DSSlot != rec.DSSlot || rec2.OpType != rec.OpType || rec2.Abs != rec.Abs || !bytes.Equal(rec2.Params, rec.Params) {
			t.Fatalf("round trip changed the record: %+v vs %+v", rec, rec2)
		}
	})
}
