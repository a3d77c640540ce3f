package backend

import (
	"sync"
	"testing"

	"asymnvm/internal/logrec"
	"asymnvm/internal/nvm"
)

// fakeSink records everything a back-end forwards.
type fakeSink struct {
	mu     sync.Mutex
	raw    bool
	writes map[uint64][]byte
	ops    []logrec.OpRecord
	kicks  int
}

func (f *fakeSink) WantsRaw() bool { return f.raw }
func (f *fakeSink) MirrorWrite(off uint64, data []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.writes == nil {
		f.writes = map[uint64][]byte{}
	}
	f.writes[off] = append([]byte(nil), data...)
	return nil
}
func (f *fakeSink) MirrorOp(slot uint16, rec []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	r, _, err := logrec.DecodeOp(rec, decodeAbs(rec))
	if err != nil {
		return err
	}
	f.ops = append(f.ops, r)
	return nil
}
func (f *fakeSink) MirrorKick() {
	f.mu.Lock()
	f.kicks++
	f.mu.Unlock()
}

func decodeAbs(rec []byte) uint64 {
	var abs uint64
	for i := 0; i < 8; i++ {
		abs |= uint64(rec[4+i]) << (8 * i)
	}
	return abs
}

// handBuild registers a structure with log areas directly on the device.
func handBuild(t *testing.T, dev *nvm.Device, l Layout, slot uint16) (aux, memBase, opBase uint64) {
	t.Helper()
	aux = l.DataBase
	memBase = l.DataBase + 4096
	opBase = l.DataBase + 4096 + 65536
	img := make([]byte, AuxSize)
	put := func(off int, v uint64) {
		for i := 0; i < 8; i++ {
			img[off+i] = byte(v >> (8 * i))
		}
	}
	put(AuxMemLogBaseOff, memBase)
	put(AuxMemLogSizeOff, 65536)
	put(AuxOpLogBaseOff, opBase)
	put(AuxOpLogSizeOff, 65536)
	if err := dev.WritePersist(aux, img); err != nil {
		t.Fatal(err)
	}
	entry, err := EncodeNameEntry(NameEntry{Used: true, Type: TypeQueue, Name: "fwd", Aux: GlobalAddr(0, aux)})
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.WritePersist(l.NameEntryOff(slot), entry); err != nil {
		t.Fatal(err)
	}
	return aux, memBase, opBase
}

func TestArchiveForwardingOfOpRecords(t *testing.T) {
	dev := nvm.NewDevice(8 << 20)
	b, err := New(dev, Options{ID: 0, Profile: &zprof})
	if err != nil {
		t.Fatal(err)
	}
	sink := &fakeSink{raw: false}
	b.AddMirror(sink)
	_, _, opBase := handBuild(t, dev, b.Layout(), 0)

	// Append two op records the way a front-end would.
	abs := uint64(0)
	for i := 0; i < 2; i++ {
		rec := logrec.OpRecord{DSSlot: 0, OpType: 3, Abs: abs, Params: []byte{byte(i)}}
		wire := rec.Encode()
		if err := dev.WritePersist(opBase+abs, wire); err != nil {
			t.Fatal(err)
		}
		abs += uint64(len(wire))
	}
	b.Start()
	b.Kick()
	b.Stop()
	if err := b.ReplicationError(); err != nil {
		t.Fatal(err)
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	if len(sink.ops) != 2 {
		t.Fatalf("archive sink got %d op records, want 2", len(sink.ops))
	}
	if sink.ops[1].Params[0] != 1 || sink.ops[1].OpType != 3 {
		t.Fatalf("forwarded op wrong: %+v", sink.ops[1])
	}
	if sink.kicks == 0 {
		t.Fatal("mirror never kicked")
	}
}

// TestCoveredOpsArchivedBeforeOPNPasses pins the archive/cursor order. A
// front-end's commit (op record, then the transaction covering it, one
// doorbell) can land after a service pass has scanned the op log but
// before it scans the memory log. The replayer must still hand the op
// record to the archive before the OPN moves past it: the next
// incarnation resumes the archive scan AT the OPN, so an op skipped here
// would be missing from the archive for good.
func TestCoveredOpsArchivedBeforeOPNPasses(t *testing.T) {
	dev := nvm.NewDevice(8 << 20)
	b, err := New(dev, Options{ID: 0, Profile: &zprof})
	if err != nil {
		t.Fatal(err)
	}
	sink := &fakeSink{raw: false}
	b.AddMirror(sink)
	_, memBase, opBase := handBuild(t, dev, b.Layout(), 0)
	target := b.Layout().DataBase + 4096 + 2*65536
	// One service pass over empty logs: the slot is discovered and this
	// pass's op-log scan is over.
	b.replayAll()
	op := logrec.OpRecord{DSSlot: 0, OpType: 3, Abs: 0, Params: []byte{7}}
	opWire := op.Encode()
	if err := dev.WritePersist(opBase, opWire); err != nil {
		t.Fatal(err)
	}
	tx := logrec.TxRecord{DSSlot: 0, Abs: 0, CoverOp: uint64(len(opWire)), Entries: []logrec.MemEntry{
		{Flag: logrec.FlagInline, Addr: GlobalAddr(0, target), Len: 4, Value: []byte("DATA")},
	}}
	if err := dev.WritePersist(memBase, tx.Encode()); err != nil {
		t.Fatal(err)
	}
	// The same pass's memory-log scan finds the transaction.
	b.mu.Lock()
	ds := b.dss[0]
	b.mu.Unlock()
	if _, err := b.replaySlot(ds); err != nil {
		t.Fatal(err)
	}
	if got := ds.opn.Load(); got != tx.CoverOp {
		t.Fatalf("OPN = %d after replay, want %d", got, tx.CoverOp)
	}
	if len(sink.ops) != 1 || sink.ops[0].Params[0] != 7 {
		t.Fatalf("OPN passed an op record the archive never saw: archived %+v", sink.ops)
	}
}

func TestRawForwardingOfTxRecords(t *testing.T) {
	dev := nvm.NewDevice(8 << 20)
	b, err := New(dev, Options{ID: 0, Profile: &zprof})
	if err != nil {
		t.Fatal(err)
	}
	sink := &fakeSink{raw: true}
	b.AddMirror(sink)
	_, memBase, _ := handBuild(t, dev, b.Layout(), 0)
	target := b.Layout().DataBase + 4096 + 2*65536

	tx := logrec.TxRecord{DSSlot: 0, Abs: 0, Entries: []logrec.MemEntry{
		{Flag: logrec.FlagInline, Addr: GlobalAddr(0, target), Len: 4, Value: []byte("DATA")},
	}}
	if err := dev.WritePersist(memBase, tx.Encode()); err != nil {
		t.Fatal(err)
	}
	b.Start()
	b.Kick()
	b.Stop()
	if err := b.ReplicationError(); err != nil {
		t.Fatal(err)
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	// The raw sink must have received the tx record bytes at the memlog
	// physical offset (plus the name entry and aux block at discovery).
	if _, ok := sink.writes[memBase]; !ok {
		t.Fatalf("raw sink missing the log range at %#x; got offsets %v", memBase, keysOf(sink.writes))
	}
	if _, ok := sink.writes[b.Layout().NameEntryOff(0)]; !ok {
		t.Fatal("raw sink missing the naming entry forward")
	}
}

func keysOf(m map[uint64][]byte) []uint64 {
	out := make([]uint64, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

func TestPendingOpsListsUncovered(t *testing.T) {
	dev := nvm.NewDevice(8 << 20)
	b, err := New(dev, Options{ID: 0, Profile: &zprof})
	if err != nil {
		t.Fatal(err)
	}
	_, _, opBase := handBuild(t, dev, b.Layout(), 0)
	// Three op records, no memory logs at all: every op is pending.
	abs := uint64(0)
	for i := 0; i < 3; i++ {
		rec := logrec.OpRecord{DSSlot: 0, OpType: 1, Abs: abs, Params: []byte{byte(i)}}
		wire := rec.Encode()
		_ = dev.WritePersist(opBase+abs, wire)
		abs += uint64(len(wire))
	}
	b.Start()
	b.Kick()
	b.Stop()
	ops, err := b.PendingOps(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 3 {
		t.Fatalf("pending ops %d, want 3", len(ops))
	}
	if _, err := b.PendingOps(42); err == nil {
		t.Fatal("unknown slot must error")
	}
}
