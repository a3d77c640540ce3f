package main

import (
	"testing"

	"asymnvm/internal/logrec"
	"asymnvm/internal/serve"
)

// TestProbeShapes runs the two workloads that between them use every probe
// (posted writes on write-batched, the request mix on serve-mixed) and
// checks, for each probe, that what it issued is what the workload's
// counters say the workload issued. A probe that drifts back to a constant,
// or a workload whose call shape changes under it, fails here.
func TestProbeShapes(t *testing.T) {
	for _, name := range []string{"write-batched", "serve-mixed"} {
		t.Run(name, func(t *testing.T) {
			var wl *workloadDef
			for i := range workloads {
				if workloads[i].Name == name {
					wl = &workloads[i]
				}
			}
			m, err := wl.run(runArgs{seed: 3, scale: testScale, setups: 1})
			if err != nil {
				t.Fatal(err)
			}
			s := shapesOf(m)
			p, err := runProbes(s)
			if err != nil {
				t.Fatal(err)
			}

			// The fabric probe moved the workload's mean bytes per round
			// trip, in the workload's posting style.
			if got, want := meanInt(p.fabric.BytesWrite, p.fabric.RDMAWrite), meanInt(m.fe.BytesWrite, m.fe.RDMAWrite); got != want {
				t.Errorf("rdma probe wrote %d B per round trip, the workload %d", got, want)
			}
			if got, want := meanInt(p.fabric.BytesRead, p.fabric.RDMARead), meanInt(m.fe.BytesRead, m.fe.RDMARead); got != want {
				t.Errorf("rdma probe read %d B per round trip, the workload %d", got, want)
			}
			if got, want := meanInt(p.fabric.PostedVerbs, p.fabric.DoorbellGroups), meanInt(m.fe.PostedVerbs, m.fe.DoorbellGroups); got != want {
				t.Errorf("rdma probe posted %d work requests per doorbell, the workload %d", got, want)
			}
			if posted := m.fe.PostedVerbs > 0; posted != (p.fabric.PostedVerbs > 0) {
				t.Errorf("workload posts verbs: %v, rdma probe: %v", posted, p.fabric.PostedVerbs > 0)
			}

			// The record probe encoded the records the workload logs: one op
			// record per put of the driver's value size, and transactions
			// of the observed number of memory-log entries.
			put := logrec.OpRecord{Params: make([]byte, 8+valueLen)}
			if p.opRecordLen != put.EncodedLen() {
				t.Errorf("logrec probe's op record is %d B, a put of %d B values logs %d B", p.opRecordLen, valueLen, put.EncodedLen())
			}
			if want := max(meanInt(m.fe.MemLogs, m.fe.TxCommits), 1); p.txEntries != want {
				t.Errorf("logrec probe's transaction has %d entries, the workload's %d", p.txEntries, want)
			}

			if name != "serve-mixed" {
				return
			}
			// The codec probe framed the driver's requests in its mix.
			total := m.reqMix[0] + m.reqMix[1] + m.reqMix[2] + m.reqMix[3]
			if total != m.ops {
				t.Fatalf("request mix counts %d requests, the window %d", total, m.ops)
			}
			val := make([]byte, valueLen)
			keys, vals := make([]uint64, serveMulti), make([][]byte, serveMulti)
			for i := range vals {
				vals[i] = val
			}
			driver := [4]serve.Request{
				{Op: serve.OpGet, Key: 1},
				{Op: serve.OpPut, Key: 1, Val: val},
				{Op: serve.OpGetMulti, Keys: keys},
				{Op: serve.OpPutMulti, Keys: keys, Vals: vals},
			}
			for k := range driver {
				if serveMix[k].op != driver[k].Op {
					t.Fatalf("mix slot %d is op %d", k, serveMix[k].op)
				}
				framed, err := driver[k].AppendFramed(nil)
				if err != nil {
					t.Fatal(err)
				}
				if p.codecReqSize[k] != len(framed) {
					t.Errorf("codec probe framed %d B for op %d, the driver's request is %d B", p.codecReqSize[k], driver[k].Op, len(framed))
				}
				if want := m.reqMix[k] * probeIters / total; p.codecIssued[k] != want {
					t.Errorf("codec probe issued %d of op %d, the workload's share is %d", p.codecIssued[k], driver[k].Op, want)
				}
			}
			if p.codecNS <= 0 || p.verbNS <= 0 || p.opRecordNS <= 0 || p.txRecordNS <= 0 || p.nvmWriteNSPerKB <= 0 {
				t.Errorf("a probe reported no time: %+v", p)
			}
		})
	}
}
