package ds

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"asymnvm/internal/backend"
	"asymnvm/internal/core"
)

// Sharding (§8.3 and beyond). One logical key space is split into N
// independent sub-structures ("shards"), each with its own writer lock
// word, lock-ahead log, memory/op logs and seqlock. The shard count and
// placement are persisted in a naming-table meta entry on conns[0] (the
// "mapping table between key range and partition ... stored in the global
// naming space"); the meta entry's TYPE selects the two things a router
// must know, so neither is ever an argument:
//
//	meta type    placement            writer discipline          child name
//	TypeApp      hash-mod partIndex   exclusive, lifetime lock   "<name>#<i>"
//	TypeStriped  top-bits stripeOf    shared, per-op stripe lock "<name>~<i>"
//
// Exclusive shards (partitioning) spread round-robin over the attached
// back-ends so ONE writer scales its verbs out and proceeds in one shard
// while readers work in others. Shared shards (striping) start on one
// back-end so SEVERAL front-ends can write one structure concurrently,
// contending per stripe: the stripe lock is a shared lock
// (core.SetSharedWriter) — releasing drains the stripe and persists exact
// tail hints, acquiring adopts those tails and invalidates the stripe's
// cache tag, so the lock word hands the whole log-append role from
// front-end to front-end. Multi-shard operations take their stripe locks
// in global (backend, slot) order — a total order, so overlapping lock
// sets cannot deadlock — and recovery after a writer death is per stripe:
// the stripe's lock-ahead log names the dead holder, BreakLock frees the
// word, and reopening the child scans its own logs.
//
// Attaching a writer must happen at a quiescent point (no operation in
// flight on the structure), the discipline every writer open in the
// framework requires; once attached, concurrent operation is safe.
//
// Both kinds persist the one versioned mapping table (migrate.go), so any
// single shard of either discipline can be handed to another back-end
// while writers keep committing. Whoever is not the sole authority on the
// map — every reader, and every shared writer — fences each routed
// operation on the meta slot's seqlock sequence number once the map is
// versioned: a cutover bumps it, and the next routed operation re-reads
// the map and re-opens the moved shard (the retry-on-moved path). A
// static (version-0) map pays no fence verb.

// shardKV is what every shardable kind provides.
type shardKV interface {
	KV
	handled
}

// Sharded routes KV operations to per-shard instances.
type Sharded struct {
	shards []shardKV
	meta   *core.Handle
	conns  []*core.Conn
	kind   KVKind
	name   string
	opts   Options
	writer bool
	shared bool // TypeStriped: top-bits placement, shared per-op stripe locks
	bits   uint // log2(shard count), for top-bits placement

	// Versioned-map state (zero for static maps).
	version uint64
	owners  []uint16 // wire owner words; see home
	metaSN  uint64   // meta seqlock SN at the last map read (the fence)
	migw    uint64   // persisted migration word mirror (writer side)

	// Double-log window (writer side): once the snapshot stream lands,
	// the shard being handed off and its destination instance — every
	// committed write goes to both until cutover.
	migPart int
	migDst  shardKV
}

// partIndex hashes a key to a shard by hash-mod.
func partIndex(key uint64, n int) int {
	return int((key * 0x9E3779B97F4A7C15) >> 33 % uint64(n))
}

// stripeOf maps a key to a shard by hashed key range: the top bits of the
// golden-ratio-scrambled key, so dense integer key populations still
// spread uniformly while each shard owns one contiguous range of the
// hashed space.
func stripeOf(key uint64, bits uint) int {
	return int((key * 0x9E3779B97F4A7C15) >> (64 - bits))
}

func log2(n int) uint {
	var b uint
	for n > 1 {
		n >>= 1
		b++
	}
	return b
}

// shardName names shard i's naming-table entry. Generation 0 is the
// creation-time name; each migration attempt materialises its destination
// under the next generation so a retry after a crashed attempt never
// collides with the abandoned area.
func shardName(name string, shared bool, i int, gen uint8) string {
	sep := "#"
	if shared {
		sep = "~"
	}
	if gen == 0 {
		return fmt.Sprintf("%s%s%d", name, sep, i)
	}
	return fmt.Sprintf("%s%s%d.g%d", name, sep, i, gen)
}

// ShardOf reports which shard owns key.
func (s *Sharded) ShardOf(key uint64) int {
	if s.shared {
		return stripeOf(key, s.bits)
	}
	return partIndex(key, len(s.shards))
}

// Shards reports the shard count.
func (s *Sharded) Shards() int { return len(s.shards) }

// Shard exposes one shard instance (benchmarks and tests address shards
// individually).
func (s *Sharded) Shard(i int) KV { return s.shards[i] }

// Handle returns shard i's core handle.
func (s *Sharded) Handle(i int) *core.Handle { return s.shards[i].Handle() }

// Handles returns every shard's handle, for cross-shard enrollment,
// recovery tooling and per-stripe lock inspection.
func (s *Sharded) Handles() []*core.Handle {
	hs := make([]*core.Handle, len(s.shards))
	for i, sh := range s.shards {
		hs[i] = sh.Handle()
	}
	return hs
}

// bucket groups a key batch by owning shard — the one place a batch is
// split. groups[si] lists shard si's keys in input order and orig[si]
// their positions in keys, so a per-shard result r scatters back as
// out[orig[si][j]] = r[j].
func (s *Sharded) bucket(keys []uint64) (groups [][]uint64, orig [][]int) {
	groups = make([][]uint64, len(s.shards))
	orig = make([][]int, len(s.shards))
	for i, k := range keys {
		si := s.ShardOf(k)
		groups[si] = append(groups[si], k)
		orig[si] = append(orig[si], i)
	}
	return groups, orig
}

// touched lists the handles of the shards a bucketed batch involves.
func (s *Sharded) touched(groups [][]uint64) []*core.Handle {
	var hs []*core.Handle
	for si, g := range groups {
		if len(g) > 0 {
			hs = append(hs, s.shards[si].Handle())
		}
	}
	return hs
}

// Spans reports whether keys touch more than one shard (transaction code
// needs to know when an operation crosses shards).
func (s *Sharded) Spans(keys []uint64) bool {
	groups, _ := s.bucket(keys)
	return len(s.touched(groups)) > 1
}

// underLocks runs body under the writer discipline's lock set over hs —
// the one discipline branch. Shared: every handle's stripe lock, taken in
// global (backend, slot) order before body and released only after it, so
// concurrent batches serialize instead of deadlocking or interleaving.
// Exclusive: the writer already holds every shard for its lifetime, so
// the set is empty.
func (s *Sharded) underLocks(hs []*core.Handle, body func() error) error {
	if !s.shared {
		hs = nil
	}
	if err := core.LockOrdered(hs...); err != nil {
		return err
	}
	err := body()
	if uerr := core.UnlockOrdered(hs...); uerr != nil && err == nil {
		err = uerr
	}
	return err
}

// put writes one pair to shard si. During a handoff's double-log window
// the destination receives every committed write too, so the streamed
// snapshot plus this live suffix is complete at cutover.
func (s *Sharded) put(si int, key uint64, val []byte) error {
	if err := s.shards[si].Put(key, val); err != nil {
		return err
	}
	if s.migDst != nil && si == s.migPart {
		if err := s.migDst.Put(key, val); err != nil {
			return fmt.Errorf("ds: double-log to migration destination: %w", err)
		}
		s.meta.Conn().Frontend().Stats().DoubleLoggedOps.Add(1)
	}
	return nil
}

// Put routes to the owning shard; under the shared discipline the
// per-operation lock bracket acquires that stripe's lock around the write.
func (s *Sharded) Put(key uint64, val []byte) error {
	if err := s.fence(); err != nil {
		return err
	}
	return s.put(s.ShardOf(key), key, val)
}

// Get routes to the owning shard. Reads stay on the source until cutover
// — it is authoritative for the whole double-log window.
func (s *Sharded) Get(key uint64) ([]byte, bool, error) {
	if err := s.fence(); err != nil {
		return nil, false, err
	}
	return s.shards[s.ShardOf(key)].Get(key)
}

// Flush flushes every shard in turn (shared writers flush inside their
// lock brackets, so for them this matters only for buffered batch state).
func (s *Sharded) Flush() error {
	for _, sh := range s.shards {
		if err := sh.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// getShard is one shard's share of a fan-out multi-get.
type getShard struct {
	keys   []uint64
	orig   []int
	mkv    multiKV
	h      *core.Handle
	w      getWalker
	vals   [][]byte
	found  []bool
	pend   *core.PendingReads
	active bool
	locked bool // seqlock held: must validate after the walk
}

// GetMulti looks up a batch of keys across shards. Shards with a native
// batched lookup advance their multi-get walkers in lockstep inside one
// fan-out window — each round posts one doorbell group per involved
// back-end before settling any of them, so the window costs
// max-over-backends instead of sum-over-backends. A shard whose seqlock
// validation fails afterward is re-run through its own retrying GetMulti;
// kinds without a walker fall back to per-key routing. Results index-match
// keys.
func (s *Sharded) GetMulti(keys []uint64) ([][]byte, []bool, error) {
	if err := s.fence(); err != nil {
		return nil, nil, err
	}
	vals := make([][]byte, len(keys))
	found := make([]bool, len(keys))
	if len(keys) == 0 {
		return vals, found, nil
	}
	groups, orig := s.bucket(keys)
	var walk []*getShard
	for si, g := range groups {
		if len(g) == 0 {
			continue
		}
		mkv, ok := s.shards[si].(multiKV)
		if !ok {
			for j, k := range g {
				v, ok, err := s.shards[si].Get(k)
				if err != nil {
					return nil, nil, err
				}
				vals[orig[si][j]], found[orig[si][j]] = v, ok
			}
			continue
		}
		walk = append(walk, &getShard{
			keys: g, orig: orig[si], mkv: mkv, h: mkv.Handle(),
			vals: make([][]byte, len(g)), found: make([]bool, len(g)),
		})
	}
	if len(walk) == 0 {
		return vals, found, nil
	}
	fe := walk[0].h.Conn().Frontend()
	fe.ChargeOp()
	conns := make([]*core.Conn, len(walk))
	for i, gs := range walk {
		conns[i] = gs.h.Conn()
	}
	fan := fe.BeginFanout(conns...)
	err := walkLockstep(walk)
	fan.End()
	if err != nil {
		return nil, nil, err
	}
	for _, gs := range walk {
		okv := true
		if gs.locked {
			if okv, err = gs.h.ReaderValidate(); err != nil {
				return nil, nil, err
			}
		}
		if !okv {
			// Torn by a concurrent commit: re-run this shard through its
			// own retrying multi-get, whose results may be the shard's and
			// die at its next one.
			tv, tf, err := gs.mkv.GetMulti(gs.keys)
			if err != nil {
				return nil, nil, err
			}
			for j, v := range tv {
				gs.vals[j], gs.found[j] = bytes.Clone(v), tf[j]
			}
		}
		for j, oi := range gs.orig {
			vals[oi], found[oi] = gs.vals[j], gs.found[j]
		}
	}
	return vals, found, nil
}

// walkLockstep drives every shard's walker to completion, one fetch round
// at a time across all of them.
func walkLockstep(walk []*getShard) error {
	for _, gs := range walk {
		if !gs.h.IsWriter() {
			if err := gs.h.ReaderLock(); err != nil {
				return err
			}
			gs.locked = gs.mkv.readValidate()
		}
		gs.w = gs.mkv.newGetWalker(gs.keys, gs.vals, gs.found)
		gs.active = true
	}
	for {
		live := false
		// Post one fetch round per active shard…
		for _, gs := range walk {
			if !gs.active {
				continue
			}
			req, ok := gs.w.next()
			if !ok {
				gs.active = false
				continue
			}
			pend, err := gs.h.PostReadMulti(req.addrs, req.unit, req.cacheable)
			if err != nil {
				return err
			}
			gs.pend = pend
			live = true
		}
		if !live {
			return nil
		}
		// …then settle and absorb them, so the groups on the different
		// links fly concurrently.
		for _, gs := range walk {
			if gs.pend == nil {
				continue
			}
			bufs, err := gs.pend.Settle()
			gs.pend = nil
			if err != nil {
				return err
			}
			if err := gs.w.absorb(bufs); err != nil {
				return err
			}
		}
	}
}

// PutMulti writes a batch, each pair routed to its owning shard. Under the
// shared discipline the batch is atomic with respect to other multi-shard
// operations (see underLocks). Exclusive writes ride the normal per-shard
// batching machinery; call FlushAll at a batch boundary to commit every
// shard in one fan-out window.
func (s *Sharded) PutMulti(keys []uint64, vals [][]byte) error {
	if len(keys) != len(vals) {
		return fmt.Errorf("ds: put multi length mismatch (%d keys, %d values)", len(keys), len(vals))
	}
	if err := s.fence(); err != nil {
		return err
	}
	groups, _ := s.bucket(keys)
	return s.underLocks(s.touched(groups), func() error {
		for i, k := range keys {
			if err := s.put(s.ShardOf(k), k, vals[i]); err != nil {
				return err
			}
		}
		return nil
	})
}

// AddMulti atomically increments 8-byte little-endian counters at the
// given keys (missing keys start at zero): a read-modify-write batch
// under the discipline's lock set. Concurrent AddMulti batches over
// overlapping keys serialize on their common stripes, so no increment is
// ever lost — the property the ordered-acquisition stress test pins.
func (s *Sharded) AddMulti(keys []uint64, delta uint64) error {
	if err := s.fence(); err != nil {
		return err
	}
	groups, _ := s.bucket(keys)
	return s.underLocks(s.touched(groups), func() error {
		for _, k := range keys {
			si := s.ShardOf(k)
			cur, ok, err := s.shards[si].Get(k)
			if err != nil {
				return err
			}
			var v uint64
			if ok && len(cur) >= 8 {
				v = binary.LittleEndian.Uint64(cur)
			}
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], v+delta)
			if err := s.put(si, k, b[:]); err != nil {
				return err
			}
		}
		return nil
	})
}

// FlushAll commits every shard's batch buffers inside one fan-out window:
// each shard's op-log group and tx record are posted on its back-end
// before any of them is settled, so an N-shard commit over K back-ends
// costs max-over-backends instead of N serial flushes.
func (s *Sharded) FlushAll() error {
	hs := s.Handles()
	conns := make([]*core.Conn, len(hs))
	for i, h := range hs {
		conns[i] = h.Conn()
	}
	fan := hs[0].Conn().Frontend().BeginFanout(conns...)
	defer fan.End()
	pfs := make([]*core.PendingFlush, 0, len(hs))
	var firstErr error
	for _, h := range hs {
		pf, err := h.FlushAsync()
		if err != nil {
			firstErr = err
			break
		}
		pfs = append(pfs, pf)
	}
	for _, pf := range pfs {
		if err := pf.Settle(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// DrainAll flushes every shard (overlapped) and waits until each
// back-end's replayer has applied the logs.
func (s *Sharded) DrainAll() error {
	if err := s.FlushAll(); err != nil {
		return err
	}
	for _, sh := range s.shards {
		if err := sh.Handle().Drain(); err != nil {
			return err
		}
	}
	return nil
}

// TxPutMulti writes the batch atomically across shards as ONE cross-shard
// transaction under tc (§8.3 partitioning composed with the 2PC plane):
// the owning shards enroll, every put buffers into its shard's logs, and
// Commit drives prepare/commit/decide. Either all pairs become durable or
// none do.
func (s *Sharded) TxPutMulti(tc *core.TxCoordinator, keys []uint64, vals [][]byte) error {
	if len(keys) != len(vals) {
		return fmt.Errorf("ds: tx put multi length mismatch (%d keys, %d values)", len(keys), len(vals))
	}
	if s.migw != 0 {
		// Cross-shard records do not migrate (HistoryOps refuses a log
		// holding them — replaying could resurrect an aborted half), so
		// the 2PC surface pauses for the duration of a handoff.
		return fmt.Errorf("ds: cross-shard transactions are paused while a shard migrates")
	}
	if len(keys) == 0 {
		return nil
	}
	if err := s.fence(); err != nil {
		return err
	}
	groups, _ := s.bucket(keys)
	hs := s.touched(groups)
	return s.underLocks(hs, func() error {
		tx, err := tc.Begin()
		if err != nil {
			return err
		}
		if err := tx.Enroll(hs...); err != nil {
			tx.Abort()
			return err
		}
		for i, k := range keys {
			if err := s.shards[s.ShardOf(k)].Put(k, vals[i]); err != nil {
				tx.Abort()
				return err
			}
		}
		return tx.Commit()
	})
}

// TxRecover resolves this structure's cross-shard in-doubt state against
// tc's coordinator (presumed abort). Run it on a fresh writer before any
// PendingOps-based re-execution: resolution advances the op cursor past
// the transactions it settles.
func (s *Sharded) TxRecover(tc *core.TxCoordinator) (committed, aborted int, err error) {
	return tc.RecoverTx(s.Handles()...)
}

// KVKind selects the structure type backing each shard.
type KVKind int

// Shardable structure kinds.
const (
	KindBST KVKind = iota
	KindBPTree
	KindSkipList
	KindHashTable
	KindMVBST
	KindMVBPTree
)

// createKV builds one instance of the requested kind.
func createKV(c *core.Conn, kind KVKind, name string, opts Options) (shardKV, error) {
	switch kind {
	case KindBST:
		return CreateBST(c, name, opts)
	case KindBPTree:
		return CreateBPTree(c, name, opts)
	case KindSkipList:
		return CreateSkipList(c, name, opts)
	case KindHashTable:
		return CreateHashTable(c, name, opts)
	case KindMVBST:
		return CreateMVBST(c, name, opts)
	case KindMVBPTree:
		return CreateMVBPTree(c, name, opts)
	default:
		return nil, fmt.Errorf("ds: unknown kind %d", kind)
	}
}

// openKV opens one instance of the requested kind.
func openKV(c *core.Conn, kind KVKind, name string, writer bool, opts Options) (shardKV, error) {
	switch kind {
	case KindBST:
		return OpenBST(c, name, writer, opts)
	case KindBPTree:
		return OpenBPTree(c, name, writer, opts)
	case KindSkipList:
		return OpenSkipList(c, name, writer, opts)
	case KindHashTable:
		return OpenHashTable(c, name, writer, opts)
	case KindMVBST:
		return OpenMVBST(c, name, writer, opts)
	case KindMVBPTree:
		return OpenMVBPTree(c, name, writer, opts)
	default:
		return nil, fmt.Errorf("ds: unknown kind %d", kind)
	}
}

// createShard materialises shard i under generation gen on c. A shared
// shard's handle is marked for the shared-lock protocol, and because
// creation wrote its initial state outside any lock bracket, one
// acquire/release cycle drains it and persists exact tail hints — the
// first real acquisition (possibly by another front-end) resyncs from
// true tails.
func (s *Sharded) createShard(c *core.Conn, i int, gen uint8) (shardKV, error) {
	sh, err := createKV(c, s.kind, shardName(s.name, s.shared, i, gen), s.opts)
	if err != nil || !s.shared {
		return sh, err
	}
	h := sh.Handle()
	h.SetSharedWriter(true)
	if err := h.WriterLock(); err != nil {
		return nil, err
	}
	return sh, h.WriterUnlock()
}

// openShard attaches to shard i's generation gen on c in this handle's
// role. Writer attachments scan the shard's logs for exact tails (the
// open-time recovery path); shared ones then contend per stripe through
// the shared lock protocol.
func (s *Sharded) openShard(c *core.Conn, i int, gen uint8) (shardKV, error) {
	sh, err := openKV(c, s.kind, shardName(s.name, s.shared, i, gen), s.writer, s.opts)
	if err == nil && s.shared && s.writer {
		sh.Handle().SetSharedWriter(true)
	}
	return sh, err
}

// newSharded builds a router for a meta entry of type typ, which fixes
// placement and discipline; the shared discipline forces per-op locks.
func newSharded(typ uint8, conns []*core.Conn, kind KVKind, name string, n int, writer bool, opts Options) (*Sharded, error) {
	s := &Sharded{
		conns: conns, kind: kind, name: name, opts: opts, writer: writer,
		shared: typ == backend.TypeStriped, bits: log2(n), migPart: -1,
	}
	if s.shared {
		if n > 1<<12 || n&(n-1) != 0 {
			return nil, fmt.Errorf("ds: stripe count must be a power of two in [1, 4096], got %d", n)
		}
		s.opts.LockPerOp = true
	}
	return s, nil
}

// createSharded creates the meta entry of the given type on conns[0],
// persists the static {kind, shards} map through the log path (so mirrors
// see the mapping table), and creates the n shards at their default
// placement. version > 0 then upgrades the map to the versioned layout.
func createSharded(conns []*core.Conn, typ uint8, kind KVKind, name string, n int, version uint64, opts Options) (*Sharded, error) {
	if n <= 0 || len(conns) == 0 {
		return nil, fmt.Errorf("ds: bad shard config (shards=%d conns=%d)", n, len(conns))
	}
	if version != 0 && n > MaxElasticParts {
		return nil, fmt.Errorf("ds: %d shards exceed the %d-shard versioned-map budget", n, MaxElasticParts)
	}
	s, err := newSharded(typ, conns, kind, name, n, true, opts)
	if err != nil {
		return nil, err
	}
	meta, err := conns[0].Create(name, typ, core.CreateOptions{MemLogSize: 64 << 10, OpLogSize: 64 << 10})
	if err != nil {
		return nil, err
	}
	s.meta = meta
	static := partMap{kind: kind, parts: n}
	if err := meta.Write(meta.AuxAddr()+backend.AuxUser, static.encode()[:mapVersionOff]); err != nil {
		return nil, err
	}
	if err := meta.Flush(); err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		ci, _ := s.home(nil, i)
		sh, err := s.createShard(conns[ci], i, 0)
		if err != nil {
			return nil, err
		}
		s.shards = append(s.shards, sh)
	}
	if version == 0 {
		return s, nil
	}
	return s, s.installMap(func(pm *partMap) {
		pm.version, pm.owners = version, make([]uint16, n)
	})
}

// CreatePartitioned creates parts exclusive-writer shards of the given
// kind, spread round-robin across the provided back-end connections, with
// a static map: no fence verb, ever. Such a structure can still migrate
// (the first BeginMigration upgrades the map in place), but only readers
// attached after the upgrade observe the flip.
func CreatePartitioned(conns []*core.Conn, kind KVKind, name string, parts int, opts Options) (*Sharded, error) {
	return createSharded(conns, backend.TypeApp, kind, name, parts, 0, opts)
}

// CreateElastic is CreatePartitioned with a versioned mapping table from
// birth (version 1, default placement), so readers fence from the start
// and follow cutovers.
func CreateElastic(conns []*core.Conn, kind KVKind, name string, parts int, opts Options) (*Sharded, error) {
	return createSharded(conns, backend.TypeApp, kind, name, parts, 1, opts)
}

// CreateStriped creates a shared-writer structure with the given
// power-of-two stripe count on one back-end connection, with a static
// map. Attach further front-ends with OpenSharded.
func CreateStriped(c *core.Conn, kind KVKind, name string, stripes int, opts Options) (*Sharded, error) {
	return createSharded([]*core.Conn{c}, backend.TypeStriped, kind, name, stripes, 0, opts)
}

// OpenSharded reads the mapping meta entry on conns[0] and opens every
// shard at its current owner; placement and writer discipline come from
// the entry's type. On a versioned map the meta slot SN is sampled BEFORE
// the map read, so a cutover racing the open is caught by the first routed
// operation's fence rather than missed.
func OpenSharded(conns []*core.Conn, name string, writer bool, opts Options) (*Sharded, error) {
	if len(conns) == 0 {
		return nil, fmt.Errorf("ds: no connections to open %q on", name)
	}
	meta, err := conns[0].Open(name, false)
	if err != nil {
		return nil, err
	}
	sn, err := meta.Conn().SlotSN(meta.Slot())
	if err != nil {
		return nil, err
	}
	pm, err := readPartMap(meta)
	if err != nil {
		return nil, err
	}
	s, err := newSharded(meta.Type(), conns, pm.kind, name, pm.parts, writer, opts)
	if err != nil {
		return nil, err
	}
	s.meta, s.version, s.owners, s.metaSN, s.migw = meta, pm.version, pm.owners, sn, pm.mig
	for i := 0; i < pm.parts; i++ {
		ci, gen := s.home(pm.owners, i)
		if ci >= len(conns) {
			return nil, fmt.Errorf("ds: shard %d owned by connection %d, only %d attached: %w",
				i, ci, len(conns), core.ErrMoved)
		}
		sh, err := s.openShard(conns[ci], i, gen)
		if err != nil {
			return nil, err
		}
		s.shards = append(s.shards, sh)
	}
	return s, nil
}
