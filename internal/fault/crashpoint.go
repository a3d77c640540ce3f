package fault

import (
	"asymnvm/internal/rdma"
	"asymnvm/internal/stats"
)

// LoseCommitRecord returns a one-shot crash hook for the connection that
// counts its verbs into st: the connection dies inside its next commit
// flush, between the segments. The first segment of every write verb (a
// commit's op group) passes; the first later segment (the commit record)
// is lost whole — no byte of it arrives — and every verb after it fails
// disconnected too. That is §7.2 Case 2.c made to order: the op record
// is durable, its memory logs are not. A consult belongs to the verb
// whose counter increment preceded it, which is how segments are told
// from verbs.
func LoseCommitRecord(st *stats.Stats) rdma.FaultHook {
	last, dead := int64(-1), false
	return func(op rdma.Op, off uint64, n int) rdma.Fault {
		if dead {
			return rdma.Fault{Err: rdma.ErrDisconnected}
		}
		if op != rdma.OpWrite {
			return rdma.Fault{}
		}
		if v := st.RDMAWrite.Load(); v != last {
			last = v
			return rdma.Fault{}
		}
		dead = true
		return rdma.Fault{Err: rdma.ErrDisconnected}
	}
}
