package rdma

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"asymnvm/internal/clock"
	"asymnvm/internal/nvm"
	"asymnvm/internal/stats"
)

// TestWriteVExactCost pins the vector-write cost contract: one round
// trip per call — RTT + one media write + the bandwidth term of the
// combined payload — independent of the element count, and independent
// of whether the vector goes out as a synchronous WriteV or as posted
// work requests under one doorbell. ds.TestUnbatchedWriteOneRoundTrip
// holds every structure's acknowledged write to this cost.
func TestWriteVExactCost(t *testing.T) {
	prof := clock.DefaultProfile()
	for _, elems := range []int{1, 3, 16} {
		ep, clk := newEP(1<<20, prof)
		var ops []WriteOp
		total := 0
		for i := 0; i < elems; i++ {
			data := make([]byte, 96)
			ops = append(ops, WriteOp{Off: uint64(i * 4096), Data: data})
			total += len(data)
		}
		if err := ep.WriteV(ops); err != nil {
			t.Fatal(err)
		}
		want := prof.WriteCost(total)
		if got := clk.Now(); got != want {
			t.Fatalf("%d-element WriteV charged %v, want exactly %v (one doorbell)", elems, got, want)
		}
		if n := ep.Stats().RDMAWrite.Load(); n != 1 {
			t.Fatalf("%d-element WriteV counted %d write verbs, want 1", elems, n)
		}

		// The posted form of the same vector — split into two work requests
		// (a commit flush's op group and record) under one doorbell — is
		// the same single round trip, plus the two posting charges.
		ep, clk = newEP(1<<20, prof)
		ep.SetPipeline(8)
		split := (elems + 1) / 2
		toks := []Token{ep.PostWriteV(ops[:split])}
		if split < elems {
			toks = append(toks, ep.PostWriteV(ops[split:]))
		}
		ep.Doorbell()
		for _, tok := range toks {
			if err := ep.Wait(tok); err != nil {
				t.Fatal(err)
			}
		}
		want += time.Duration(len(toks)) * prof.WRIssue
		if got := clk.Now(); got != want {
			t.Fatalf("%d elements in %d posted WRs charged %v, want exactly %v (one doorbell)", elems, len(toks), got, want)
		}
		if n := ep.Stats().RDMAWrite.Load(); n != 1 {
			t.Fatalf("%d posted WRs under one doorbell counted %d write verbs, want 1", len(toks), n)
		}
	}
}

func TestPostedReadsOneDoorbell(t *testing.T) {
	prof := clock.DefaultProfile()
	ep, clk := newEP(4096, prof)
	ep.SetPipeline(16)
	_ = ep.Write(0, []byte("abcdefgh"))
	base := clk.Now()

	bufs := make([][]byte, 8)
	toks := make([]Token, 8)
	for i := range bufs {
		bufs[i] = make([]byte, 1)
		toks[i] = ep.PostRead(uint64(i), bufs[i])
	}
	ep.Doorbell()
	for _, tok := range toks {
		if err := ep.Wait(tok); err != nil {
			t.Fatal(err)
		}
	}
	var got []byte
	for _, b := range bufs {
		got = append(got, b[0])
	}
	if string(got) != "abcdefgh" {
		t.Fatalf("posted reads returned %q", got)
	}
	elapsed := clk.Now() - base
	if elapsed > prof.ReadCost(8)+8*prof.WRIssue {
		t.Fatalf("8 posted reads cost %v, want about one round trip", elapsed)
	}
	st := ep.Stats().Snapshot()
	if st.RDMARead != 1 {
		t.Fatalf("8 posted reads paid %d read round trips, want 1", st.RDMARead)
	}
	if st.DoorbellGroups != 1 || st.PostedVerbs != 8 {
		t.Fatalf("doorbells=%d posted=%d, want 1/8", st.DoorbellGroups, st.PostedVerbs)
	}
	if st.AvgQueueDepth() < 2 {
		t.Fatalf("avg queue depth %.1f, want deep pipeline", st.AvgQueueDepth())
	}
}

// TestOverlapSavings pins the clock-overlap model: compute performed
// between doorbell and wait is subtracted from the charged wait, and
// recorded as overlap savings.
func TestOverlapSavings(t *testing.T) {
	prof := clock.DefaultProfile()
	ep, clk := newEP(4096, prof)
	ep.SetPipeline(4)

	tok := ep.PostWrite(0, make([]byte, 64))
	ep.Doorbell()
	groupCost := prof.WriteCost(64)
	compute := prof.RDMARTT / 2
	clk.Advance(compute) // the actor does useful work while the WR flies
	before := clk.Now()
	if err := ep.Wait(tok); err != nil {
		t.Fatal(err)
	}
	waited := clk.Now() - before
	if want := groupCost - compute; waited != want {
		t.Fatalf("wait charged %v, want remaining gap %v", waited, want)
	}
	if saved := ep.Stats().OverlapSavedNS.Load(); saved != int64(compute) {
		t.Fatalf("overlap saved %dns, want %d", saved, int64(compute))
	}
}

// TestFaultSurfacesAtCompletion: a dropped posted write must not fail at
// post or doorbell time — the error arrives when the completion retires,
// and the truncated prefix sits in the volatile window like the sync path.
func TestFaultSurfacesAtCompletion(t *testing.T) {
	ep, _ := newEP(256, clock.ZeroProfile())
	ep.SetPipeline(8)
	_ = ep.Write(0, bytes.Repeat([]byte{0xAA}, 128))
	ep.SetFault(func(op Op, off uint64, n int) Fault {
		if op == OpWrite {
			return Fault{Err: ErrInjected, Truncate: 32}
		}
		return Fault{}
	})
	tok := ep.PostWrite(0, bytes.Repeat([]byte{0xBB}, 128))
	ep.Doorbell() // no error surfaces here
	ep.SetFault(nil)
	if err := ep.Wait(tok); !errors.Is(err, ErrInjected) {
		t.Fatalf("completion must carry the injected fault, got %v", err)
	}
	if got := ep.t.dev.VolatileBytes(0, 128); got != 32 {
		t.Fatalf("volatile window %d bytes, want 32", got)
	}
	ep.t.dev.Crash(nil)
	buf := make([]byte, 128)
	_ = ep.Read(0, buf)
	if !bytes.Equal(buf, bytes.Repeat([]byte{0xAA}, 128)) {
		t.Fatal("unacknowledged posted write must not be durable")
	}
}

// TestGroupFlushAfterFailure: once one WR in a doorbell group fails, the
// rest are flushed with the same sentinel without executing.
func TestGroupFlushAfterFailure(t *testing.T) {
	ep, _ := newEP(256, clock.ZeroProfile())
	ep.SetPipeline(8)
	calls := 0
	ep.SetFault(func(op Op, off uint64, n int) Fault {
		calls++
		if calls == 1 {
			return Fault{Err: ErrInjected}
		}
		return Fault{}
	})
	t1 := ep.PostWrite(0, []byte{1})
	t2 := ep.PostWrite(8, []byte{2})
	ep.Doorbell()
	if calls != 1 {
		t.Fatalf("flushed WR consumed fault randomness: %d hook calls, want 1", calls)
	}
	if err := ep.Wait(t1); !errors.Is(err, ErrInjected) {
		t.Fatalf("first WR: %v", err)
	}
	if err := ep.Wait(t2); !errors.Is(err, ErrInjected) {
		t.Fatalf("flushed WR must inherit the group failure, got %v", err)
	}
	ep.SetFault(nil)
	buf := make([]byte, 1)
	_ = ep.Read(8, buf)
	if buf[0] != 0 {
		t.Fatal("flushed WR must not reach the target")
	}
}

func TestQueueDepthCap(t *testing.T) {
	ep, _ := newEP(4096, clock.ZeroProfile())
	ep.SetPipeline(4)
	for i := 0; i < 32; i++ {
		ep.PostWrite(uint64(i*8), []byte{byte(i)})
		if ep.Outstanding() > 4 {
			t.Fatalf("outstanding %d exceeds depth cap 4", ep.Outstanding())
		}
	}
	if err := ep.Drain(); err != nil {
		t.Fatal(err)
	}
	if ep.Outstanding() != 0 {
		t.Fatalf("drain left %d in flight", ep.Outstanding())
	}
	buf := make([]byte, 1)
	_ = ep.Read(31*8, buf)
	if buf[0] != 31 {
		t.Fatal("capped pipeline lost a write")
	}
}

func TestRetargetFlushesInflight(t *testing.T) {
	devA := nvm.NewDevice(64)
	devB := nvm.NewDevice(64)
	ep := Connect(NewTarget(devA), clock.NewVirtual(), &stats.Stats{}, clock.ZeroProfile())
	ep.SetPipeline(8)
	t1 := ep.PostWrite(0, []byte("AAAA"))
	ep.Doorbell()
	t2 := ep.PostWrite(8, []byte("CCCC")) // still in the send queue
	ep.Retarget(NewTarget(devB))
	if err := ep.Wait(t1); !errors.Is(err, ErrDisconnected) {
		t.Fatalf("in-flight WR must flush with ErrDisconnected, got %v", err)
	}
	if err := ep.Wait(t2); !errors.Is(err, ErrDisconnected) {
		t.Fatalf("queued WR must flush with ErrDisconnected, got %v", err)
	}
	if ep.Outstanding() != 0 {
		t.Fatalf("retarget left %d in flight", ep.Outstanding())
	}
	buf := make([]byte, 4)
	_ = devB.ReadAt(8, buf)
	if !bytes.Equal(buf, make([]byte, 4)) {
		t.Fatal("queued WR must not land on the new target")
	}
}

// TestSyncVerbFencesPostedWrites: a synchronous read issued after posted
// writes must observe them (program order at the device), even though
// their completions have not been waited on.
func TestSyncVerbFencesPostedWrites(t *testing.T) {
	ep, _ := newEP(256, clock.ZeroProfile())
	ep.SetPipeline(8)
	tok := ep.PostWrite(0, []byte("posted"))
	buf := make([]byte, 6)
	if err := ep.Read(0, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "posted" {
		t.Fatalf("sync read after post saw %q", buf)
	}
	if err := ep.Wait(tok); err != nil {
		t.Fatal(err)
	}
}

// TestPollRetirementPreservesWAW is the write-after-write hazard property
// test: whatever interleaving of Post/Doorbell/Poll/Wait/sync verbs the
// caller uses, writes to overlapping offsets must apply in posted order.
// The final device image is compared against a shadow buffer updated
// sequentially at post time.
func TestPollRetirementPreservesWAW(t *testing.T) {
	const devSize = 512
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ep, clk := newEP(devSize, clock.DefaultProfile())
		depth := 1 + rng.Intn(8)
		ep.SetPipeline(depth)
		shadow := make([]byte, devSize)
		var outstanding []Token

		steps := 60 + rng.Intn(60)
		for i := 0; i < steps; i++ {
			switch rng.Intn(10) {
			case 0, 1, 2, 3, 4: // post a write over a hot, overlapping range
				off := rng.Intn(devSize - 32)
				n := 1 + rng.Intn(32)
				data := make([]byte, n)
				for j := range data {
					data[j] = byte(rng.Intn(256))
				}
				if rng.Intn(4) == 0 { // sometimes as a vector WR
					mid := n / 2
					outstanding = append(outstanding, ep.PostWriteV([]WriteOp{
						{Off: uint64(off), Data: data[:mid]},
						{Off: uint64(off + mid), Data: data[mid:]},
					}))
				} else {
					outstanding = append(outstanding, ep.PostWrite(uint64(off), data))
				}
				copy(shadow[off:], data)
			case 5:
				ep.Doorbell()
			case 6:
				// Retire whatever is ready; retirement order must not matter.
				for _, c := range ep.Poll() {
					if c.Err != nil {
						t.Fatalf("seed %d: poll: %v", seed, c.Err)
					}
					for k, tok := range outstanding {
						if tok == c.Token {
							outstanding = append(outstanding[:k], outstanding[k+1:]...)
							break
						}
					}
				}
			case 7:
				if len(outstanding) > 0 { // wait a random (possibly newest) token
					k := rng.Intn(len(outstanding))
					if err := ep.Wait(outstanding[k]); err != nil {
						t.Fatalf("seed %d: wait: %v", seed, err)
					}
					outstanding = append(outstanding[:k], outstanding[k+1:]...)
				}
			case 8: // interleave a synchronous write
				off := rng.Intn(devSize - 8)
				data := []byte{byte(rng.Intn(256))}
				if err := ep.Write(uint64(off), data); err != nil {
					t.Fatalf("seed %d: sync write: %v", seed, err)
				}
				copy(shadow[off:], data)
			case 9:
				clk.Advance(time.Duration(rng.Intn(3000)) * time.Nanosecond)
			}
		}
		if err := ep.Drain(); err != nil {
			t.Fatalf("seed %d: drain: %v", seed, err)
		}
		got := make([]byte, devSize)
		if err := ep.ReadQuiet(0, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, shadow) {
			for j := range got {
				if got[j] != shadow[j] {
					t.Fatalf("seed %d depth %d: WAW violated at offset %d: got %#x want %#x",
						seed, depth, j, got[j], shadow[j])
				}
			}
		}
	}
}

// TestPipelineDeterminism: the same posted sequence must charge the same
// virtual time and produce the same counters on every run.
func TestPipelineDeterminism(t *testing.T) {
	run := func() (time.Duration, string) {
		ep, clk := newEP(4096, clock.DefaultProfile())
		ep.SetPipeline(8)
		for i := 0; i < 20; i++ {
			ep.PostWrite(uint64(i*64), bytes.Repeat([]byte{byte(i)}, 48))
			if i%5 == 4 {
				ep.Doorbell()
			}
		}
		if err := ep.Drain(); err != nil {
			t.Fatal(err)
		}
		return clk.Now(), fmt.Sprint(ep.Stats().Snapshot())
	}
	t1, s1 := run()
	t2, s2 := run()
	if t1 != t2 || s1 != s2 {
		t.Fatalf("pipeline run not deterministic:\n%v %s\n%v %s", t1, s1, t2, s2)
	}
}
