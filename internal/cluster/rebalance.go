package cluster

import (
	"fmt"
	"sort"

	"asymnvm/internal/core"
	"asymnvm/internal/ds"
)

// Elastic rebalancing: the cluster-level orchestration over the ds
// layer's shard handoff (ds.Sharded.BeginMigration et al.).
// Placement is decided by a consistent-hash ring over the back-end
// slots; PlanMoves diffs a structure's persisted mapping table against
// the ring's assignment, and Rebalance drives one partition's handoff
// end to end — begin (migration word + fresh-generation destination),
// stream (full history re-executed on the destination, then the
// double-log window), cutover (one durable logged meta write flips the
// versioned map; the epoch fence redirects readers on their next
// routed operation), finish (bookkeeping word cleared, source area
// left for lazy reclaim).

// Ring is a consistent-hash placement of partitions over back-end
// slots. Each member contributes vnodes points; ownership of partition
// pi is the first point clockwise from hash(pi). Membership changes
// bump the ring version, so planners can tell "assignment changed
// under me" from "nothing to do". Not safe for concurrent use; the
// rebalancing coordinator owns it.
type Ring struct {
	vnodes  int
	version uint64
	members map[int]bool
	points  []ringPoint // sorted by hash
}

type ringPoint struct {
	hash    uint64
	backend int
}

// ringHash is splitmix64's finalizer: cheap, well-mixed, and stable
// across runs (placement must be a pure function of ids).
func ringHash(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Partition keys and vnode points hash from disjoint input domains.
// Without the tags, partition pi and member 0's vnode pi share the raw
// input pi, hash to the SAME ring position, and the binary search's >=
// comparison hands every low-numbered partition to member 0.
const (
	ringPartTag  = uint64(0x7061) << 48 // "pa"
	ringVnodeTag = uint64(0x766E) << 48 // "vn"
)

// NewRing builds an empty ring; each member added later contributes
// vnodes placement points (more points, smoother moves per membership
// change).
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = 16
	}
	return &Ring{vnodes: vnodes, members: make(map[int]bool)}
}

// Version reports the membership version (bumped by Add/Remove).
func (r *Ring) Version() uint64 { return r.version }

// Members returns the member back-end slots in ascending order.
func (r *Ring) Members() []int {
	out := make([]int, 0, len(r.members))
	for m := range r.members {
		out = append(out, m)
	}
	sort.Ints(out)
	return out
}

// Add joins a back-end slot to the ring.
func (r *Ring) Add(backendID int) {
	if r.members[backendID] {
		return
	}
	r.members[backendID] = true
	for v := 0; v < r.vnodes; v++ {
		r.points = append(r.points, ringPoint{
			hash:    ringHash(ringVnodeTag | uint64(backendID)<<20 | uint64(v)),
			backend: backendID,
		})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
	r.version++
}

// Remove drains a back-end slot out of the ring; its partitions fall
// to the next points clockwise.
func (r *Ring) Remove(backendID int) {
	if !r.members[backendID] {
		return
	}
	delete(r.members, backendID)
	kept := r.points[:0]
	for _, pt := range r.points {
		if pt.backend != backendID {
			kept = append(kept, pt)
		}
	}
	r.points = kept
	r.version++
}

// Owner reports which member owns partition pi, or -1 on an empty ring.
func (r *Ring) Owner(pi uint64) int {
	if len(r.points) == 0 {
		return -1
	}
	h := ringHash(ringPartTag | pi)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].backend
}

// Move is one planned partition relocation.
type Move struct {
	Part     int
	From, To int
}

// PlanMoves diffs a partitioned structure's current persisted placement
// against the ring's assignment and returns the partitions that must
// move. Connection indices and back-end slots coincide for front-ends
// built by Cluster.NewFrontend (conns are indexed by back-end id).
func PlanMoves(p *ds.Sharded, r *Ring) []Move {
	var moves []Move
	for pi := 0; pi < p.Shards(); pi++ {
		want := r.Owner(uint64(pi))
		if want < 0 {
			continue
		}
		if cur := p.Owner(pi); cur != want {
			moves = append(moves, Move{Part: pi, From: cur, To: want})
		}
	}
	return moves
}

// RebalanceHooks interpose at the phase boundaries of one handoff —
// the chaos soak and the crash matrix inject failures between phases
// through these. A nil hook is skipped; a hook error before cutover
// aborts the migration (source stays the sole owner), after cutover it
// is returned with the flip already durable.
type RebalanceHooks struct {
	AfterBegin   func(m *ds.Migration) error
	AfterStream  func(m *ds.Migration, ops int) error
	AfterCutover func(m *ds.Migration) error
}

// Rebalance drives one partition handoff end to end and returns the
// number of history operations streamed. On an error before the map
// flip the migration is aborted — the word is cleared and the
// destination generation left as orphaned garbage for the next
// attempt's generation probe to skip — so the structure is always left
// with exactly one owner per partition.
func Rebalance(p *ds.Sharded, pi int, dst *core.Conn, hooks RebalanceHooks) (int, error) {
	m, err := p.BeginMigration(pi, dst)
	if err != nil {
		return 0, err
	}
	abort := func(cause error) (int, error) {
		if aerr := m.Abort(); aerr != nil {
			return 0, fmt.Errorf("%w (abort also failed: %v)", cause, aerr)
		}
		return 0, cause
	}
	if hooks.AfterBegin != nil {
		if err := hooks.AfterBegin(m); err != nil {
			return abort(err)
		}
	}
	n, err := m.StreamSnapshot()
	if err != nil {
		return abort(err)
	}
	if hooks.AfterStream != nil {
		if err := hooks.AfterStream(m, n); err != nil {
			return abort(err)
		}
	}
	if err := m.Cutover(); err != nil {
		return n, err
	}
	if hooks.AfterCutover != nil {
		if err := hooks.AfterCutover(m); err != nil {
			return n, err
		}
	}
	if err := m.Finish(); err != nil {
		return n, err
	}
	return n, nil
}

// RehomeArchive moves slot from's archive stream to slot to: the sink
// detaches from the old primary, attaches to the new one (its op
// cursor resumes at the new feed; everything earlier was archived at
// the old home), and the archiveHome mapping is updated so later
// restarts and promotions of EITHER slot re-attach the stream at its
// current home. Call at a quiescent point, after the structures it
// archives have migrated.
func (c *Cluster) RehomeArchive(from, to int) error {
	c.foMu.Lock()
	defer c.foMu.Unlock()
	if from < 0 || from >= len(c.archiveHome) || to < 0 || to >= len(c.archiveHome) {
		return fmt.Errorf("cluster: re-home archive %d->%d out of range", from, to)
	}
	if from == to {
		return nil
	}
	ai := c.archiveHome[from]
	if ai < 0 {
		return fmt.Errorf("cluster: backend%d has no archive to re-home", from)
	}
	if c.archiveHome[to] >= 0 {
		return fmt.Errorf("cluster: backend%d already owns archive %d", to, c.archiveHome[to])
	}
	arch := c.Archives[ai]
	c.Backends[from].RemoveMirror(arch)
	c.Backends[to].AddMirror(arch)
	c.archiveHome[from] = -1
	c.archiveHome[to] = ai
	if c.plane != nil {
		c.plane.Record(fmt.Sprintf("rehome archive%d backend%d->backend%d", ai, from, to))
	}
	return nil
}
