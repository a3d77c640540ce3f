package ds

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"

	"asymnvm/internal/arena"
	"asymnvm/internal/backend"
	"asymnvm/internal/core"
	"asymnvm/internal/logrec"
	"asymnvm/internal/trace"
)

// Elastic shard migration. One shard — of either writer discipline — is
// handed off to another back-end while the writer keeps committing:
//
//  1. Begin          — create the destination area under a fresh
//     child-name generation and persist the in-flight migration word
//     (phase=streaming).
//  2. StreamSnapshot — flush and drain the source, then re-execute its
//     full operation history on the destination through the migration
//     stream framing (logrec.MigRecord). When the snapshot lands, the
//     double-log window opens: every subsequent committed write goes to
//     both source and destination (the live log suffix).
//  3. Cutover        — drain both sides, then flip the shard's owner word
//     and bump the map version in ONE logged meta write (phase=reclaim).
//     Applying that write bumps the meta slot's seqlock SN — the epoch
//     fence readers observe; their next routed operation re-reads the map
//     and re-opens the moved shard.
//  4. Finish         — clear the migration word. The old area is left in
//     place for lazy reclaim: the naming table has no delete, and an
//     in-flight reader that raced past the fence may still be walking it
//     (the same rule that keeps an old root valid across RedirectRoot).
//
// Abort abandons a handoff any time before Cutover; ResolveMigration
// settles a word a crashed writer left behind.
//
// Raw byte copy between back-ends is unsound — GlobalAddrs embed the
// owning node id in their top bits — so migration re-executes operation
// semantics, never bytes.
//
// Crash outcomes (pinned by the crash matrix, for both disciplines):
// death anywhere before Cutover's meta write leaves the source the sole
// durable owner and the destination generation abandoned garbage (a retry
// picks the next generation, so it never collides with the orphan); death
// after the meta write — even before Finish — leaves the flipped map
// durable, so recovery lands on exactly the destination. There is no
// window in which both or neither own the shard.
//
// Stripe locks are shared between front-ends, and a static map upgraded
// in place is only fenced on by attachments made after the upgrade: other
// attachments of such a structure must quiesce before Cutover and
// re-attach afterwards (the standard writer-attach discipline).

// Mapping-table layout in the meta entry's aux user area (offsets
// relative to backend.AuxUser), shared by both meta types:
//
//	[0:8)    kind
//	[8:16)   shards
//	[16:24)  version    (0 = static map: no fence, default owners)
//	[24:32)  migration word (see migWord; 0 = none in flight)
//	[32:...) owner words, one u16 per shard
//
// A static map persists only the first 16 bytes and reads back with
// version 0 because the aux user area is zero-initialised.
const (
	mapVersionOff = 16
	mapMigOff     = 24
	mapOwnersOff  = 32

	// MaxElasticParts caps versioned maps: the owner words must fit the
	// meta aux user area behind the fixed header.
	MaxElasticParts = (backend.AuxSize - backend.AuxUser - mapOwnersOff) / 2
)

// Migration phases persisted in the migration word.
const (
	migPhaseStream  = 1 // destination materialising: snapshot + double log
	migPhaseReclaim = 2 // map flipped; old area awaiting lazy reclaim
)

// migWord packs the in-flight migration descriptor: shard, phase,
// destination child-name generation and destination connection index.
func migWord(pi int, phase, gen, dst uint8) uint64 {
	return uint64(pi+1) | uint64(phase)<<16 | uint64(gen)<<24 | uint64(dst+1)<<32
}

// splitMigWord unpacks migWord. Only call on a nonzero word.
func splitMigWord(w uint64) (pi int, phase, gen, dst uint8) {
	return int(w&0xFFFF) - 1, uint8(w >> 16), uint8(w >> 24), uint8(w>>32) - 1
}

// ownerWord packs a shard owner: connection index and generation.
func ownerWord(conn int, gen uint8) uint16 {
	return uint16(conn+1) | uint16(gen)<<8
}

// home resolves shard i's placement from the wire owner words. A zero
// word is the creation-time default — generation 0 on conns[i%len(conns)]
// for exclusive shards, on conns[0] for shared ones (stripes are born on
// one back-end whatever else is attached); otherwise the low byte holds
// the owning connection index + 1 and the high byte the child-name
// generation.
func (s *Sharded) home(owners []uint16, i int) (conn int, gen uint8) {
	if i < len(owners) && owners[i] != 0 {
		return int(owners[i]&0xFF) - 1, uint8(owners[i] >> 8)
	}
	if s.shared {
		return 0, 0
	}
	return i % len(s.conns), 0
}

// partMap is the decoded mapping table.
type partMap struct {
	kind    KVKind
	parts   int
	version uint64
	mig     uint64
	owners  []uint16
}

func (pm *partMap) encode() []byte {
	b := make([]byte, mapOwnersOff+2*len(pm.owners))
	binary.LittleEndian.PutUint64(b[0:], uint64(pm.kind))
	binary.LittleEndian.PutUint64(b[8:], uint64(pm.parts))
	binary.LittleEndian.PutUint64(b[mapVersionOff:], pm.version)
	binary.LittleEndian.PutUint64(b[mapMigOff:], pm.mig)
	for i, ow := range pm.owners {
		binary.LittleEndian.PutUint16(b[mapOwnersOff+2*i:], ow)
	}
	return b
}

// readPartMap reads the mapping table from the meta entry. Static maps
// decode with version 0 and nil owners.
func readPartMap(meta *core.Handle) (partMap, error) {
	var pm partMap
	hdr, err := meta.Read(meta.AuxAddr()+backend.AuxUser, mapOwnersOff, false)
	if err != nil {
		return pm, err
	}
	pm.kind = KVKind(binary.LittleEndian.Uint64(hdr[0:]))
	pm.parts = int(binary.LittleEndian.Uint64(hdr[8:]))
	pm.version = binary.LittleEndian.Uint64(hdr[mapVersionOff:])
	pm.mig = binary.LittleEndian.Uint64(hdr[mapMigOff:])
	if pm.parts <= 0 || pm.parts > 1<<16 {
		return pm, fmt.Errorf("ds: corrupt shard meta (shards=%d)", pm.parts)
	}
	if pm.version == 0 {
		return pm, nil
	}
	if pm.parts > MaxElasticParts {
		return pm, fmt.Errorf("ds: versioned map with %d shards exceeds the %d-shard aux budget", pm.parts, MaxElasticParts)
	}
	ob, err := meta.Read(meta.AuxAddr()+backend.AuxUser+mapOwnersOff, 2*pm.parts, false)
	if err != nil {
		return pm, err
	}
	pm.owners = make([]uint16, pm.parts)
	for i := range pm.owners {
		pm.owners[i] = binary.LittleEndian.Uint16(ob[2*i:])
	}
	return pm, nil
}

// installMap is the one way the mapping table changes. mutate edits a
// staged copy of the writer's map; the copy goes through the meta entry's
// log path — Flush commits the record, Drain waits until the back-end
// replayer has applied it, and that apply bumps the meta slot SN readers
// fence on — and only then do the handle's fields adopt it. A failed
// write therefore leaves the in-memory map exactly as durable as it was:
// no claimed flip, no forgotten migration word.
func (s *Sharded) installMap(mutate func(*partMap)) error {
	if !s.meta.IsWriter() {
		// OpenSharded opens the meta entry read-only; map changes need
		// the log path.
		meta, err := s.conns[0].Open(s.name, true)
		if err != nil {
			return err
		}
		s.meta = meta
	}
	pm := partMap{
		kind: s.kind, parts: len(s.shards), version: s.version, mig: s.migw,
		owners: append([]uint16(nil), s.owners...),
	}
	mutate(&pm)
	if err := s.meta.Write(s.meta.AuxAddr()+backend.AuxUser, pm.encode()); err != nil {
		return err
	}
	if err := s.meta.Flush(); err != nil {
		return err
	}
	if err := s.meta.Drain(); err != nil {
		return err
	}
	s.version, s.owners, s.migw = pm.version, pm.owners, pm.mig
	if s.shared {
		// This writer fences too; its own map write must not look like
		// somebody else's cutover.
		sn, err := s.fenceSN()
		if err != nil {
			return err
		}
		s.metaSN = sn
	}
	return nil
}

// fenceSN loads the meta slot's seqlock SN, the word the fence watches.
func (s *Sharded) fenceSN() (uint64, error) { return s.meta.Conn().SlotSN(s.meta.Slot()) }

// fence guards a routed operation on a versioned map: the meta slot's
// seqlock SN is compared against the value cached at the last map read; a
// cutover's meta apply bumps it, and the map is re-read and moved shards
// re-opened before routing. Only an exclusive writer skips the check:
// under SWMR it is the party performing migrations, so its view is
// authoritative — a shared writer is one of several. Staleness is bounded
// to the single operation already in flight at the flip — the old area
// stays valid for whoever raced past the check, exactly the root-redirect
// rule.
func (s *Sharded) fence() error {
	if s.version == 0 || (s.writer && !s.shared) {
		return nil
	}
	sn, err := s.fenceSN()
	if err != nil {
		return err
	}
	if sn == s.metaSN {
		return nil
	}
	return s.refreshMap()
}

// refreshMap re-reads the mapping table under the meta seqlock and
// re-opens any shard whose owner changed (the retry-on-moved path). While
// the replayer is mid-apply on the meta slot, or the SN moves under the
// read, it yields and retries like any optimistic read section — never a
// host-counted cap, which would turn a descheduled replayer into a
// spurious ErrMoved. A destination outside the attached connection set
// surfaces core.ErrMoved: this front-end cannot reach the new owner and
// the caller must re-attach (serve maps it to StatusMoved with a
// retry-after hint).
func (s *Sharded) refreshMap() error {
	for ; ; runtime.Gosched() {
		sn1, err := s.fenceSN()
		if err != nil {
			return err
		}
		if sn1&1 != 0 {
			continue
		}
		pm, err := readPartMap(s.meta)
		if err != nil {
			return err
		}
		sn2, err := s.fenceSN()
		if err != nil {
			return err
		}
		if sn2 != sn1 {
			continue
		}
		if pm.parts != len(s.shards) {
			return fmt.Errorf("ds: mapping table shard count changed (%d -> %d)", len(s.shards), pm.parts)
		}
		for i := range s.shards {
			nc, ng := s.home(pm.owners, i)
			oc, og := s.home(s.owners, i)
			if nc == oc && ng == og {
				continue
			}
			if nc >= len(s.conns) {
				return fmt.Errorf("ds: shard %d re-homed to connection %d, only %d attached: %w",
					i, nc, len(s.conns), core.ErrMoved)
			}
			sh, err := s.openShard(s.conns[nc], i, ng)
			if err != nil {
				return err
			}
			s.shards[i] = sh
		}
		s.version, s.owners, s.metaSN = pm.version, pm.owners, sn1
		return nil
	}
}

// Version reports the current mapping-table version (0 = static).
func (s *Sharded) Version() uint64 { return s.version }

// Owner reports which connection index currently owns shard i — the
// placement rebalancing planners compare against the ring's assignment.
func (s *Sharded) Owner(i int) int {
	ci, _ := s.home(s.owners, i)
	return ci
}

// Migrating reports the shard currently being handed off, or -1.
func (s *Sharded) Migrating() int {
	if s.migw == 0 {
		return -1
	}
	pi, _, _, _ := splitMigWord(s.migw)
	return pi
}

// clearMigWord persists the map with no migration in flight.
func (s *Sharded) clearMigWord() error {
	return s.installMap(func(pm *partMap) { pm.mig = 0 })
}

// ResolveMigration settles a migration word left behind by a crashed
// writer — the open-time recovery step, run on a fresh writer before
// serving. A streaming-phase word aborts: the map never flipped, so the
// source is the sole durable owner and the destination generation is
// orphaned garbage (a retry's generation probe skips past it). A
// reclaim-phase word finishes: the flip was durable, recovery already
// landed on the destination, and only the bookkeeping word remained.
// Either way the shard ends with exactly one owner. Returns -1 for an
// aborted stream, +1 for a completed flip, 0 when nothing was pending.
func (s *Sharded) ResolveMigration() (int, error) {
	if s.migw == 0 {
		return 0, nil
	}
	if !s.writer {
		return 0, fmt.Errorf("ds: only the writer resolves migrations")
	}
	_, phase, _, _ := splitMigWord(s.migw)
	if err := s.clearMigWord(); err != nil {
		return 0, err
	}
	if phase == migPhaseStream {
		return -1, nil
	}
	return 1, nil
}

// Migration is an in-flight handoff of one shard to a new back-end.
type Migration struct {
	s     *Sharded
	pi    int
	gen   uint8
	dstCi int
	dst   shardKV
	seq   uint64 // migration stream cursor
	epoch uint64 // map version the cutover will install
}

// BeginMigration starts handing shard pi off to the attached connection
// dst: it creates the destination area under a fresh generation name and
// persists the migration word (upgrading a static map in place). Stream
// the snapshot next; writes keep routing to the source until Cutover.
func (s *Sharded) BeginMigration(pi int, dst *core.Conn) (*Migration, error) {
	if !s.writer {
		return nil, fmt.Errorf("ds: only the writer migrates shards")
	}
	if s.migw != 0 {
		return nil, fmt.Errorf("ds: shard %d already migrating", s.Migrating())
	}
	if pi < 0 || pi >= len(s.shards) {
		return nil, fmt.Errorf("ds: bad shard %d", pi)
	}
	if len(s.shards) > MaxElasticParts {
		return nil, fmt.Errorf("ds: %d shards exceed the %d-shard versioned-map budget", len(s.shards), MaxElasticParts)
	}
	dstCi := -1
	for i, c := range s.conns {
		if c == dst {
			dstCi = i
			break
		}
	}
	if dstCi < 0 {
		return nil, fmt.Errorf("ds: destination connection not attached to this structure")
	}
	// Probe for a free generation: an orphaned destination from a crashed
	// earlier attempt still holds its name (the naming table has no
	// delete), so creation collisions just advance the generation.
	_, gen := s.home(s.owners, pi)
	var dstKV shardKV
	for {
		if gen == 0xFF {
			return nil, fmt.Errorf("ds: shard %d exhausted migration generations", pi)
		}
		gen++
		var err error
		dstKV, err = s.createShard(dst, pi, gen)
		if err == nil {
			break
		}
		if !errors.Is(err, core.ErrExists) {
			return nil, err
		}
	}
	err := s.installMap(func(pm *partMap) {
		if pm.version == 0 {
			pm.version = 1 // upgrade a static map in place
		}
		if pm.owners == nil {
			pm.owners = make([]uint16, pm.parts)
		}
		pm.mig = migWord(pi, migPhaseStream, gen, uint8(dstCi))
	})
	if err != nil {
		return nil, err
	}
	s.meta.Conn().Frontend().Stats().MigrationsActive.Add(1)
	return &Migration{s: s, pi: pi, gen: gen, dstCi: dstCi, dst: dstKV, epoch: s.version + 1}, nil
}

// Dst exposes the destination instance (tests inspect it directly).
func (m *Migration) Dst() KV { return m.dst }

// StreamSnapshot re-executes the source shard's full operation history on
// the destination, then opens the double-log window: from return onward
// every committed write to this shard goes to both sides, so the snapshot
// plus the live suffix is complete at cutover. Each history record
// travels through the migration stream framing — encoded to a MigRecord,
// run back through the fuzz-hardened decoder, then replayed — so the
// in-process path exercises byte-identical framing to a networked stream.
// A shared destination is replayed into inside its writer-lock bracket,
// the discipline the shared-lock protocol demands of any stripe writer
// (the release drains it and persists exact tail hints).
func (m *Migration) StreamSnapshot() (int, error) {
	s := m.s
	src := s.shards[m.pi]
	rep, ok := m.dst.(Replayer)
	if !ok {
		return 0, fmt.Errorf("ds: destination %T cannot replay the migration stream", m.dst)
	}
	if err := src.Flush(); err != nil {
		return 0, err
	}
	if err := src.Handle().Drain(); err != nil {
		return 0, err
	}
	ops, err := src.Handle().HistoryOps()
	if err != nil {
		return 0, err
	}
	var n int
	err = s.underLocks([]*core.Handle{m.dst.Handle()}, func() error {
		var err error
		if n, err = streamOps(ops, src.Handle().Slot(), m.epoch, &m.seq, logrec.MigSnap, rep); err != nil {
			return err
		}
		return m.dst.Flush()
	})
	if err != nil {
		return n, err
	}
	// The migrating writer drives both the handoff and its commits (other
	// shared writers are quiesced), so no write can slip in between the
	// history read above and this point: the double-log window opens
	// exactly at the snapshot boundary and every operation reaches the
	// destination exactly once — which keeps even non-idempotent replays
	// (counter adds) correct.
	s.migPart, s.migDst = m.pi, m.dst
	return n, nil
}

// Cutover flips ownership of the shard to the destination: both sides are
// committed and applied, the cutover marker is framed through the stream
// codec, and the owner word + version land in one logged meta write whose
// apply is the fence readers trip on. After Cutover the writer itself
// routes to the destination. A failed Cutover changes nothing — the
// source stays owner, the window stays open — and may be retried.
func (m *Migration) Cutover() error {
	s := m.s
	if s.migDst != m.dst {
		return fmt.Errorf("ds: cutover before the snapshot stream completed")
	}
	for _, side := range []shardKV{s.shards[m.pi], m.dst} {
		if err := side.Flush(); err != nil {
			return err
		}
		if err := side.Handle().Drain(); err != nil {
			return err
		}
	}
	// Seal the stream: a networked destination acks this marker before
	// the flip. The in-process path still frames and decodes it so the
	// wire discipline stays exercised.
	seal := logrec.MigRecord{Kind: logrec.MigCutover, Slot: s.meta.Slot(), Seq: m.seq, Epoch: m.epoch}
	if _, _, err := logrec.DecodeMig(seal.Encode(), m.seq); err != nil {
		return fmt.Errorf("ds: cutover marker self-check: %w", err)
	}
	err := s.installMap(func(pm *partMap) {
		pm.owners[m.pi] = ownerWord(m.dstCi, m.gen)
		pm.version++
		pm.mig = migWord(m.pi, migPhaseReclaim, m.gen, uint8(m.dstCi))
	})
	if err != nil {
		return err
	}
	m.seq++
	s.shards[m.pi] = m.dst
	s.migPart, s.migDst = -1, nil
	fe := s.meta.Conn().Frontend()
	fe.Stats().CutoverEpochs.Add(1)
	fe.Tracer().Event(trace.KindCutover, s.version)
	return nil
}

// Finish clears the migration word after cutover. The superseded source
// area stays in the naming table for lazy reclaim — an in-flight reader
// that raced past the fence may still be walking it.
func (m *Migration) Finish() error {
	return m.close(false)
}

// Abort abandons a handoff before cutover: the migration word clears,
// double-logging stops, and the destination generation is left as garbage
// (a later retry picks a fresh generation). Aborting after cutover is not
// possible — the flip is one durable meta write.
func (m *Migration) Abort() error {
	return m.close(true)
}

// close retires the migration word; abort says which side of the flip the
// caller believes it is on.
func (m *Migration) close(abort bool) error {
	s := m.s
	if s.migw == 0 {
		return nil
	}
	if _, phase, _, _ := splitMigWord(s.migw); abort && phase == migPhaseReclaim {
		return fmt.Errorf("ds: cannot abort after cutover; Finish instead")
	}
	if err := s.clearMigWord(); err != nil {
		return err
	}
	s.migPart, s.migDst = -1, nil
	s.meta.Conn().Frontend().Stats().MigrationsActive.Add(-1)
	return nil
}

// StreamHistory re-executes src's full committed history on dst through
// the migration stream framing — the building block of shard handoff,
// exported for re-home tooling and the replay-equivalence harness.
// Returns the op count shipped.
func StreamHistory(src *core.Handle, dst Replayer) (int, error) {
	ops, err := src.HistoryOps()
	if err != nil {
		return 0, err
	}
	var seq uint64
	return streamOps(ops, src.Slot(), 1, &seq, logrec.MigSnap, dst)
}

// streamOps frames each op record as a migration-stream record, runs it
// back through the fuzz-hardened decoder, and re-executes it on dst.
// seq is the dense stream cursor; a gap or replay fails the decode.
//
// Each record is also appended to the destination's own op log before
// re-execution (logged first, so the EndOp inside ReplayOp covers it —
// the same order the public mutators use). Without this the migrated
// materialization would hold only post-cutover records, so a SECOND
// migration of the same shard would stream a truncated history and
// silently drop everything written before the first hop.
func streamOps(ops []logrec.OpRecord, slot uint16, epoch uint64, seq *uint64, kind uint8, dst Replayer) (int, error) {
	var dh *core.Handle
	if hd, ok := dst.(handled); ok {
		dh = hd.Handle()
	}
	var (
		wire []byte
		pay  []byte
		dec  logrec.MigRecord
		op   logrec.OpRecord
		a    arena.Arena
	)
	for i := range ops {
		pay = ops[i].AppendTo(pay[:0])
		rec := logrec.MigRecord{Kind: kind, Slot: slot, Seq: *seq, Epoch: epoch, Payload: pay}
		wire = rec.AppendTo(wire[:0])
		used, err := logrec.DecodeMigInto(&dec, wire, *seq, &a)
		if err != nil {
			return i, fmt.Errorf("ds: migration stream self-check: %w", err)
		}
		if used != len(wire) {
			return i, fmt.Errorf("ds: migration stream framed %d bytes, decoded %d", len(wire), used)
		}
		if _, err := logrec.DecodeOpInto(&op, dec.Payload, ops[i].Abs, &a); err != nil {
			return i, fmt.Errorf("ds: migration payload: %w", err)
		}
		if dh != nil {
			if _, err := dh.OpLog(op.OpType, op.Params); err != nil {
				return i, err
			}
		}
		if err := dst.ReplayOp(op); err != nil {
			return i, err
		}
		*seq++
		a.Reset()
	}
	return len(ops), nil
}
