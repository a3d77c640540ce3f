package main

import (
	"fmt"
	"runtime"
	"time"

	"asymnvm/internal/arena"
	"asymnvm/internal/clock"
	"asymnvm/internal/logrec"
	"asymnvm/internal/nvm"
	"asymnvm/internal/rdma"
	"asymnvm/internal/serve"
	"asymnvm/internal/stats"
)

// shapes are the call shapes the layer probes replay. They come from the
// untraced window's counters, never from constants, so a probe keeps
// timing what the workload actually issued when the program changes.
type shapes struct {
	writeTripB   int      // mean bytes per fabric write round trip
	readTripB    int      // mean bytes per fabric read round trip
	writeTrips   int64    // write and read round trips, the probe's mix
	readTrips    int64    //
	perDoorbell  int      // mean work requests per doorbell group; 0 = synchronous verbs
	valueLen     int      // bytes per put value
	entriesPerTx int      // memory-log entries per committed transaction
	reqMix       [4]int64 // serve requests by kind, serveMix's order
}

func meanInt(n, d int64) int {
	if d == 0 {
		return 0
	}
	return int((n + d/2) / d)
}

func shapesOf(m *measurement) shapes {
	s := shapes{
		writeTripB:   meanInt(m.fe.BytesWrite, m.fe.RDMAWrite),
		readTripB:    meanInt(m.fe.BytesRead, m.fe.RDMARead),
		writeTrips:   m.fe.RDMAWrite,
		readTrips:    m.fe.RDMARead,
		perDoorbell:  meanInt(m.fe.PostedVerbs, m.fe.DoorbellGroups),
		entriesPerTx: meanInt(m.fe.MemLogs, m.fe.TxCommits),
		reqMix:       m.reqMix,
	}
	if m.fe.OpLogs > 0 {
		s.valueLen = int(m.userBytes/m.fe.OpLogs) - 8
	}
	return s
}

// probeResults are the (C) metrics, plus what each probe issued so that
// probes_test.go can hold it against the shapes.
type probeResults struct {
	verbNS          float64
	nvmWriteNSPerKB float64
	nvmReadNSPerKB  float64
	opRecordNS      float64
	txRecordNS      float64
	recordAllocs    float64
	codecNS         float64
	codecAllocs     float64

	fabric       stats.Snapshot // the rdma probe's own counters
	opRecordLen  int
	txEntries    int
	codecIssued  [4]int64
	codecReqSize [4]int // framed request bytes by kind
}

const (
	probeDevice = 8 << 20
	probeIters  = 20_000
)

// timed runs fn n times and returns wall ns and heap allocations per call.
func timed(n int, fn func(i int)) (ns, allocs float64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m0 := ms.Mallocs
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	d := time.Since(t0)
	runtime.ReadMemStats(&ms)
	return float64(d) / float64(n), float64(ms.Mallocs-m0) / float64(n)
}

// runProbes times direct calls into rdma, nvm, logrec and the serve codec
// at the given shapes.
func runProbes(s shapes) (probeResults, error) {
	var p probeResults
	if err := probeFabric(s, &p); err != nil {
		return p, fmt.Errorf("rdma probe: %w", err)
	}
	if err := probeDeviceIO(s, &p); err != nil {
		return p, fmt.Errorf("nvm probe: %w", err)
	}
	if err := probeRecords(s, &p); err != nil {
		return p, fmt.Errorf("logrec probe: %w", err)
	}
	if err := probeCodec(s, &p); err != nil {
		return p, fmt.Errorf("serve codec probe: %w", err)
	}
	return p, nil
}

// slot spreads probe accesses over the device so they do not all hit one
// cache-resident line.
func slot(i, size int) uint64 { return uint64(i*4096) % uint64(probeDevice-size-4096) }

// probeFabric times the endpoint's verbs on a bare target: writes as the
// workload issued them (synchronous, or posted perDoorbell to a doorbell),
// reads synchronously, mixed by the observed round-trip counts.
func probeFabric(s shapes, p *probeResults) error {
	st := &stats.Stats{}
	ep := rdma.Connect(rdma.NewTarget(nvm.NewDevice(probeDevice)), clock.NewVirtual(), st, clock.DefaultProfile())
	buf := make([]byte, max(s.writeTripB, s.readTripB, 8))
	var err error
	var writeNS, readNS float64
	if s.writeTrips > 0 {
		if s.perDoorbell > 0 {
			ep.SetPipeline(s.perDoorbell)
			// Sizes that do not divide evenly put the remainder in the
			// first work request, so a group still moves writeTripB bytes.
			each := s.writeTripB / s.perDoorbell
			first := s.writeTripB - each*(s.perDoorbell-1)
			ops := make([][]rdma.WriteOp, s.perDoorbell)
			for j := range ops {
				ops[j] = make([]rdma.WriteOp, 1)
			}
			writeNS, _ = timed(probeIters, func(i int) {
				off := slot(i, s.writeTripB)
				for j := range ops {
					n := each
					if j == 0 {
						n = first
					}
					ops[j][0] = rdma.WriteOp{Off: off, Data: buf[:n]}
					ep.PostWriteV(ops[j])
					off += uint64(n)
				}
				ep.Doorbell()
				if e := ep.Drain(); e != nil {
					err = e
				}
			})
		} else {
			writeNS, _ = timed(probeIters, func(i int) {
				if e := ep.Write(slot(i, s.writeTripB), buf[:s.writeTripB]); e != nil {
					err = e
				}
			})
		}
	}
	if s.readTrips > 0 {
		readNS, _ = timed(probeIters, func(i int) {
			if e := ep.Read(slot(i, s.readTripB), buf[:s.readTripB]); e != nil {
				err = e
			}
		})
	}
	if trips := s.writeTrips + s.readTrips; trips > 0 {
		p.verbNS = (writeNS*float64(s.writeTrips) + readNS*float64(s.readTrips)) / float64(trips)
	}
	p.fabric = st.Snapshot()
	return err
}

// probeDeviceIO times the device's persisted write and read at the
// fabric's transfer sizes.
func probeDeviceIO(s shapes, p *probeResults) error {
	dev := nvm.NewDevice(probeDevice)
	buf := make([]byte, max(s.writeTripB, s.readTripB, 8))
	var err error
	if s.writeTripB > 0 {
		ns, _ := timed(probeIters, func(i int) {
			if e := dev.WritePersist(slot(i, s.writeTripB), buf[:s.writeTripB]); e != nil {
				err = e
			}
		})
		p.nvmWriteNSPerKB = ns * 1024 / float64(s.writeTripB)
	}
	if s.readTripB > 0 {
		ns, _ := timed(probeIters, func(i int) {
			if e := dev.ReadAt(slot(i, s.readTripB), buf[:s.readTripB]); e != nil {
				err = e
			}
		})
		p.nvmReadNSPerKB = ns * 1024 / float64(s.readTripB)
	}
	return err
}

// probeRecords times encode plus decode of one op record carrying a put's
// parameters and of one transaction record of entriesPerTx inline entries,
// the way the front-end appends and the replayer decodes them.
func probeRecords(s shapes, p *probeResults) error {
	if s.valueLen <= 0 {
		return nil
	}
	var ar arena.Arena
	var err error
	wire := make([]byte, 0, 1<<16)
	op := logrec.OpRecord{DSSlot: 1, OpType: 1, Params: make([]byte, 8+s.valueLen)}
	var opOut logrec.OpRecord
	p.opRecordLen = op.EncodedLen()
	opNS, opAllocs := timed(probeIters, func(i int) {
		op.Abs = uint64(i)
		w := op.AppendTo(wire[:0])
		ar.Reset()
		if _, e := logrec.DecodeOpInto(&opOut, w, op.Abs, &ar); e != nil {
			err = e
		}
	})
	tx := logrec.TxRecord{DSSlot: 1, Entries: make([]logrec.MemEntry, max(s.entriesPerTx, 1))}
	for i := range tx.Entries {
		tx.Entries[i] = logrec.MemEntry{Flag: logrec.FlagInline, Addr: uint64(i) * 64, Len: uint32(s.valueLen), Value: make([]byte, s.valueLen)}
	}
	var txOut logrec.TxRecord
	p.txEntries = len(tx.Entries)
	txNS, txAllocs := timed(probeIters, func(i int) {
		tx.Abs = uint64(i)
		w := tx.AppendTo(wire[:0])
		ar.Reset()
		if _, e := logrec.DecodeTxInto(&txOut, w, tx.Abs, &ar); e != nil {
			err = e
		}
	})
	p.opRecordNS, p.txRecordNS, p.recordAllocs = opNS, txNS, (opAllocs+txAllocs)/2
	return err
}

// probeCodec times what the serving tier does to one request outside the
// structure operation: the client frames the request, the server decodes
// it and frames the response, the client decodes the response. Kinds are
// issued in the workload's proportions.
func probeCodec(s shapes, p *probeResults) error {
	total := s.reqMix[0] + s.reqMix[1] + s.reqMix[2] + s.reqMix[3]
	if total == 0 {
		return nil
	}
	val := make([]byte, s.valueLen)
	keys := make([]uint64, serveMulti)
	vals := make([][]byte, serveMulti)
	founds := make([]bool, serveMulti)
	for i := range vals {
		keys[i], vals[i], founds[i] = uint64(i+1), val, true
	}
	reqs := [4]serve.Request{
		{Op: serve.OpGet, Key: 1},
		{Op: serve.OpPut, Key: 1, Val: val},
		{Op: serve.OpGetMulti, Keys: keys},
		{Op: serve.OpPutMulti, Keys: keys, Vals: vals},
	}
	resps := [4]serve.Response{
		{Status: serve.StatusOK, Found: true, Val: val},
		{Status: serve.StatusOK},
		{Status: serve.StatusOK, Founds: founds, Vals: vals},
		{Status: serve.StatusOK},
	}
	var err error
	var reqBuf, respBuf []byte
	var req serve.Request
	var ns, allocs, issued float64
	for k := range reqs {
		n := int(s.reqMix[k] * probeIters / total)
		if n == 0 {
			continue
		}
		kns, kallocs := timed(n, func(int) {
			var e error
			if reqBuf, e = reqs[k].AppendFramed(reqBuf[:0]); e != nil {
				err = e
			}
			if e = serve.DecodeRequestInto(&req, reqBuf[4:], nil); e != nil {
				err = e
			}
			if respBuf, e = resps[k].AppendFramed(respBuf[:0]); e != nil {
				err = e
			}
			if _, e = serve.DecodeResponse(respBuf[4:]); e != nil {
				err = e
			}
		})
		ns += kns * float64(n)
		allocs += kallocs * float64(n)
		issued += float64(n)
		p.codecIssued[k] = int64(n)
		p.codecReqSize[k] = len(reqBuf)
	}
	p.codecNS, p.codecAllocs = ns/issued, allocs/issued
	return err
}
