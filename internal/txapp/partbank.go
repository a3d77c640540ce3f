package txapp

import (
	"encoding/binary"
	"fmt"

	"asymnvm/internal/core"
	"asymnvm/internal/ds"
)

// PartitionedSmallBank is the scale-out variant of the banking benchmark:
// the account table is hash-partitioned across back-ends and every
// transaction touches its rows through the batched cross-partition
// GetMulti/PutMulti path, so a two-account transaction whose rows land on
// different back-ends pays max-over-backends for its reads instead of a
// serial walk. The transaction mix, key scheme and balance arithmetic are
// identical to SmallBank.
type PartitionedSmallBank struct {
	p        *ds.Sharded
	tc       *core.TxCoordinator
	accounts uint64
	counts   [sbTxKinds]int64
	cross    int64
	writer   bool
}

// NewPartitionedSmallBank creates and populates the partitioned bank.
func NewPartitionedSmallBank(conns []*core.Conn, name string, n uint64, parts int, opts ds.Options) (*PartitionedSmallBank, error) {
	p, err := ds.CreatePartitioned(conns, ds.KindHashTable, name, parts, opts)
	if err != nil {
		return nil, err
	}
	b := &PartitionedSmallBank{p: p, accounts: n, writer: true}
	// Populate in batches so each chunk commits with one overlapped
	// FlushAll instead of per-partition serial flushes.
	const chunk = 128
	keys := make([]uint64, 0, chunk)
	vals := make([]int64, 0, chunk)
	flushChunk := func() error {
		if len(keys) == 0 {
			return nil
		}
		if err := b.setBals(keys, vals); err != nil {
			return err
		}
		keys, vals = keys[:0], vals[:0]
		return b.p.FlushAll()
	}
	for id := uint64(1); id <= n; id++ {
		keys = append(keys, savKey(id), chkKey(id))
		vals = append(vals, 10000, 5000)
		if len(keys) >= chunk {
			if err := flushChunk(); err != nil {
				return nil, err
			}
		}
	}
	if err := flushChunk(); err != nil {
		return nil, err
	}
	return b, nil
}

// OpenPartitionedSmallBank attaches to an existing partitioned bank.
func OpenPartitionedSmallBank(conns []*core.Conn, name string, n uint64, writer bool, opts ds.Options) (*PartitionedSmallBank, error) {
	p, err := ds.OpenSharded(conns, name, writer, opts)
	if err != nil {
		return nil, err
	}
	return &PartitionedSmallBank{p: p, accounts: n, writer: writer}, nil
}

// bals fetches the given account rows with one cross-partition multi-get.
func (b *PartitionedSmallBank) bals(keys ...uint64) ([]int64, error) {
	vals, found, err := b.p.GetMulti(keys)
	if err != nil {
		return nil, err
	}
	out := make([]int64, len(keys))
	for i, k := range keys {
		if !found[i] {
			return nil, fmt.Errorf("txapp: missing account row %d", k)
		}
		out[i] = int64(binary.LittleEndian.Uint64(vals[i]))
	}
	return out, nil
}

// setBals routes the updated rows to their partitions in one PutMulti.
func (b *PartitionedSmallBank) setBals(keys []uint64, vals []int64) error {
	bufs := make([][]byte, len(keys))
	for i, v := range vals {
		buf := make([]byte, 8)
		binary.LittleEndian.PutUint64(buf, uint64(v))
		bufs[i] = buf
	}
	return b.p.PutMulti(keys, bufs)
}

// EnableCrossShardTx arms two-phase commit: transfers whose rows hash to
// different partitions commit through the coordinator's prepare/commit
// protocol instead of independent per-partition flushes, so a crash
// between the two partition writes can no longer create or destroy money.
func (b *PartitionedSmallBank) EnableCrossShardTx(tc *core.TxCoordinator) { b.tc = tc }

// CrossShardTxs reports how many transfers took the 2PC path.
func (b *PartitionedSmallBank) CrossShardTxs() int64 { return b.cross }

// TxRecover resolves in-doubt prepares left by a crash mid-2PC. Call it
// after reopening the bank with a writer front-end, before running new
// transactions.
func (b *PartitionedSmallBank) TxRecover(tc *core.TxCoordinator) (committed, aborted int, err error) {
	return b.p.TxRecover(tc)
}

// setBalsTx is setBals for the transfer transactions: when a coordinator
// is armed and the rows span partitions, the updates are committed
// atomically under one cross-shard transaction.
func (b *PartitionedSmallBank) setBalsTx(keys []uint64, vals []int64) error {
	if b.tc == nil || !b.p.Spans(keys) {
		return b.setBals(keys, vals)
	}
	bufs := make([][]byte, len(keys))
	for i, v := range vals {
		buf := make([]byte, 8)
		binary.LittleEndian.PutUint64(buf, uint64(v))
		bufs[i] = buf
	}
	b.cross++
	return b.p.TxPutMulti(b.tc, keys, bufs)
}

// DoTx executes one transaction from the standard mix; the random-stream
// derivations match SmallBank.DoTx so the two harnesses run comparable
// workloads.
func (b *PartitionedSmallBank) DoTx(r uint64) error {
	tx := pickSB(r)
	b.counts[tx]++
	id := r>>8%b.accounts + 1
	id2 := r>>32%b.accounts + 1
	if id2 == id {
		id2 = id%b.accounts + 1
	}
	amount := int64(r>>16%100) + 1
	switch tx {
	case SBBalance:
		_, err := b.bals(savKey(id), chkKey(id))
		return err
	case SBDepositChecking:
		if !b.writer {
			return nil
		}
		v, err := b.bals(chkKey(id))
		if err != nil {
			return err
		}
		return b.setBals([]uint64{chkKey(id)}, []int64{v[0] + amount})
	case SBTransactSavings:
		if !b.writer {
			return nil
		}
		v, err := b.bals(savKey(id))
		if err != nil {
			return err
		}
		return b.setBals([]uint64{savKey(id)}, []int64{v[0] + amount})
	case SBAmalgamate:
		if !b.writer {
			return nil
		}
		v, err := b.bals(savKey(id), chkKey(id), chkKey(id2))
		if err != nil {
			return err
		}
		return b.setBalsTx(
			[]uint64{savKey(id), chkKey(id), chkKey(id2)},
			[]int64{0, 0, v[2] + v[0] + v[1]})
	case SBWriteCheck:
		if !b.writer {
			return nil
		}
		v, err := b.bals(savKey(id), chkKey(id))
		if err != nil {
			return err
		}
		if v[0]+v[1] < amount {
			amount++ // overdraft penalty
		}
		return b.setBals([]uint64{chkKey(id)}, []int64{v[1] - amount})
	case SBSendPayment:
		if !b.writer {
			return nil
		}
		v, err := b.bals(chkKey(id), chkKey(id2))
		if err != nil {
			return err
		}
		if v[0] < amount {
			return nil // insufficient funds: abort (no effect)
		}
		return b.setBalsTx(
			[]uint64{chkKey(id), chkKey(id2)},
			[]int64{v[0] - amount, v[1] + amount})
	}
	return fmt.Errorf("txapp: unknown tx %d", tx)
}

// TotalMoney sums every balance with chunked multi-gets (conservation
// checks in tests).
func (b *PartitionedSmallBank) TotalMoney() (int64, error) {
	var total int64
	const chunk = 128
	keys := make([]uint64, 0, chunk)
	sum := func() error {
		if len(keys) == 0 {
			return nil
		}
		vals, err := b.bals(keys...)
		if err != nil {
			return err
		}
		for _, v := range vals {
			total += v
		}
		keys = keys[:0]
		return nil
	}
	for id := uint64(1); id <= b.accounts; id++ {
		keys = append(keys, savKey(id), chkKey(id))
		if len(keys) >= chunk {
			if err := sum(); err != nil {
				return 0, err
			}
		}
	}
	if err := sum(); err != nil {
		return 0, err
	}
	return total, nil
}

// Counts returns per-type executed transaction counts.
func (b *PartitionedSmallBank) Counts() [6]int64 {
	var out [6]int64
	copy(out[:], b.counts[:])
	return out
}

// Table exposes the underlying partitioned table.
func (b *PartitionedSmallBank) Table() *ds.Sharded { return b.p }

// Flush commits every partition's batched writes in one fan-out window.
func (b *PartitionedSmallBank) Flush() error { return b.p.FlushAll() }

// Drain flushes and waits until every back-end has applied the logs.
func (b *PartitionedSmallBank) Drain() error { return b.p.DrainAll() }
