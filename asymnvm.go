// Package asymnvm is a from-scratch reproduction of AsymNVM (ASPLOS 2020):
// a framework for implementing persistent data structures on an
// asymmetric NVM architecture, where byte-addressable NVM lives in a few
// passive back-end nodes shared over an RDMA-class fabric by many
// front-end machines that have no NVM of their own.
//
// The public API assembles simulated deployments (back-ends with NVM
// devices, replica/archive mirrors, front-end clients) and exposes the
// eight persistent data structures of the paper plus the two transaction
// applications. Hardware the paper requires — RDMA NICs and Optane
// DIMMs — is simulated with a virtual-time latency model; see DESIGN.md
// for the substitution argument.
//
// Quick start:
//
//	cl, _ := asymnvm.NewCluster(asymnvm.ClusterConfig{Backends: 1})
//	defer cl.Stop()
//	client, _ := cl.NewClient(1, asymnvm.ModeRCB(64<<20, 1024))
//	tree, _ := client.CreateBPTree("mytree", asymnvm.DSOptions{})
//	_ = tree.Put(42, []byte("hello"))
//	v, ok, _ := tree.Get(42)
package asymnvm

import (
	"asymnvm/internal/backend"
	"asymnvm/internal/clock"
	"asymnvm/internal/cluster"
	"asymnvm/internal/core"
	"asymnvm/internal/ds"
	"asymnvm/internal/mirror"
	"asymnvm/internal/nvm"
	"asymnvm/internal/stats"
	"asymnvm/internal/txapp"
	"asymnvm/internal/workload"
)

// Re-exported configuration types.
type (
	// Mode is the front-end optimization configuration (the paper's
	// naive / R / RC / RCB ladder).
	Mode = core.Mode
	// DSOptions configures a data structure instance.
	DSOptions = ds.Options
	// CreateOptions sizes a structure's private log areas.
	CreateOptions = core.CreateOptions
	// LatencyProfile is the simulated hardware model.
	LatencyProfile = clock.Profile
	// Stats is a point-in-time snapshot of a node's counters.
	Stats = stats.Snapshot
)

// Re-exported data structure and application types.
type (
	Stack       = ds.Stack
	Queue       = ds.Queue
	HashTable   = ds.HashTable
	SkipList    = ds.SkipList
	BST         = ds.BST
	BPTree      = ds.BPTree
	MVBST       = ds.MVBST
	MVBPTree    = ds.MVBPTree
	Partitioned = ds.Sharded
	TATP        = txapp.TATP
	SmallBank   = txapp.SmallBank
	// KV is the common key-value interface of the index structures.
	KV = ds.KV
	// WorkloadConfig configures a key/operation generator.
	WorkloadConfig = workload.Config
	// Workload generates operation streams (uniform/zipf, read/write mixes).
	Workload = workload.Generator
)

// Mode constructors (Table 3's configurations).
var (
	// ModeNaive disables every optimization: direct remote reads and
	// in-place remote writes.
	ModeNaive = core.ModeNaive
	// ModeR enables operation logging with decoupled replay.
	ModeR = core.ModeR
	// ModeRC adds the front-end DRAM cache.
	ModeRC = core.ModeRC
	// ModeRCB adds memory-log batching and op-log group commit.
	ModeRCB = core.ModeRCB
	// DefaultProfile is the paper-calibrated latency model (2 µs RDMA
	// round trips, 100/300 ns NVM reads/writes).
	DefaultProfile = clock.DefaultProfile
	// NewWorkload builds an operation generator.
	NewWorkload = workload.New
)

// ClusterConfig sizes a deployment.
type ClusterConfig struct {
	// Backends is the number of back-end NVM nodes (default 1).
	Backends int
	// ReplicaMirrors attaches that many NVM replica mirrors per back-end.
	ReplicaMirrors int
	// ArchiveMirror additionally attaches an SSD-class op-log archive.
	ArchiveMirror bool
	// DeviceBytes is each back-end's NVM capacity (default 256 MiB).
	DeviceBytes int
	// Profile overrides the latency model (default DefaultProfile).
	Profile *LatencyProfile
}

// Cluster is an assembled AsymNVM deployment.
type Cluster struct {
	inner *cluster.Cluster
}

// NewCluster builds and starts a deployment.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	cc := cluster.DefaultConfig()
	if cfg.Backends > 0 {
		cc.Backends = cfg.Backends
	}
	cc.MirrorsPerBack = cfg.ReplicaMirrors
	cc.ArchivePerBack = cfg.ArchiveMirror
	if cfg.DeviceBytes > 0 {
		cc.DeviceBytes = cfg.DeviceBytes
	}
	if cfg.Profile != nil {
		cc.Profile = *cfg.Profile
	}
	inner, err := cluster.New(cc)
	if err != nil {
		return nil, err
	}
	return &Cluster{inner: inner}, nil
}

// Stop drains and stops every node.
func (c *Cluster) Stop() { c.inner.Stop() }

// Internal exposes the underlying cluster for recovery orchestration and
// benchmarks (promotion, restart, archives).
func (c *Cluster) Internal() *cluster.Cluster { return c.inner }

// Backend returns back-end node i.
func (c *Cluster) Backend(i int) *backend.Backend { return c.inner.Backends[i] }

// RestartBackend restarts a back-end on its device (transient failure,
// optionally with a power failure).
func (c *Cluster) RestartBackend(i int, powerFail bool) error {
	_, _, err := c.inner.RestartBackend(i, powerFail)
	return err
}

// PromoteMirror makes replica mirror m of back-end i the new back-end
// (permanent failure recovery).
func (c *Cluster) PromoteMirror(i, m int) error {
	_, err := c.inner.PromoteMirror(i, m)
	return err
}

// Archive returns back-end i's archive mirror (nil without ArchiveMirror).
func (c *Cluster) Archive(i int) *mirror.Archive {
	if i >= len(c.inner.Archives) {
		return nil
	}
	return c.inner.Archives[i]
}

// Client is a front-end node with connections to every back-end.
type Client struct {
	fe    *core.Frontend
	conns []*core.Conn
}

// NewClient creates a front-end node. The id must be unique per cluster
// (it doubles as the RPC slot and lock owner id; at most 16 per
// back-end by default).
func (c *Cluster) NewClient(id uint16, mode Mode) (*Client, error) {
	fe, conns, err := c.inner.NewFrontend(id, mode)
	if err != nil {
		return nil, err
	}
	return &Client{fe: fe, conns: conns}, nil
}

// Conn returns the connection to back-end i (structure constructors that
// take an explicit back-end use it).
func (cl *Client) Conn(i int) *core.Conn { return cl.conns[i] }

// Conns returns all connections.
func (cl *Client) Conns() []*core.Conn { return cl.conns }

// Stats snapshots the client's counters.
func (cl *Client) Stats() Stats { return cl.fe.Stats().Snapshot() }

// VirtualTime reports the client's simulated elapsed time.
func (cl *Client) VirtualTime() int64 { return int64(cl.fe.Clock().Now()) }

// Frontend exposes the underlying front-end node.
func (cl *Client) Frontend() *core.Frontend { return cl.fe }

// Structure constructors, all on back-end 0 unless the name says otherwise.

// CreateStack registers a new persistent stack.
func (cl *Client) CreateStack(name string, opts DSOptions) (*Stack, error) {
	return ds.CreateStack(cl.conns[0], name, opts)
}

// OpenStack reopens a stack as its (recovering) writer.
func (cl *Client) OpenStack(name string, opts DSOptions) (*Stack, error) {
	return ds.OpenStack(cl.conns[0], name, opts)
}

// CreateQueue registers a new persistent queue.
func (cl *Client) CreateQueue(name string, opts DSOptions) (*Queue, error) {
	return ds.CreateQueue(cl.conns[0], name, opts)
}

// OpenQueue reopens a queue as its writer.
func (cl *Client) OpenQueue(name string, opts DSOptions) (*Queue, error) {
	return ds.OpenQueue(cl.conns[0], name, opts)
}

// CreateHashTable registers a new persistent hash table.
func (cl *Client) CreateHashTable(name string, opts DSOptions) (*HashTable, error) {
	return ds.CreateHashTable(cl.conns[0], name, opts)
}

// OpenHashTable attaches to a hash table.
func (cl *Client) OpenHashTable(name string, writer bool, opts DSOptions) (*HashTable, error) {
	return ds.OpenHashTable(cl.conns[0], name, writer, opts)
}

// CreateSkipList registers a new persistent skip list.
func (cl *Client) CreateSkipList(name string, opts DSOptions) (*SkipList, error) {
	return ds.CreateSkipList(cl.conns[0], name, opts)
}

// OpenSkipList attaches to a skip list.
func (cl *Client) OpenSkipList(name string, writer bool, opts DSOptions) (*SkipList, error) {
	return ds.OpenSkipList(cl.conns[0], name, writer, opts)
}

// CreateBST registers a new persistent binary search tree.
func (cl *Client) CreateBST(name string, opts DSOptions) (*BST, error) {
	return ds.CreateBST(cl.conns[0], name, opts)
}

// OpenBST attaches to a BST.
func (cl *Client) OpenBST(name string, writer bool, opts DSOptions) (*BST, error) {
	return ds.OpenBST(cl.conns[0], name, writer, opts)
}

// CreateBPTree registers a new persistent B+Tree.
func (cl *Client) CreateBPTree(name string, opts DSOptions) (*BPTree, error) {
	return ds.CreateBPTree(cl.conns[0], name, opts)
}

// OpenBPTree attaches to a B+Tree.
func (cl *Client) OpenBPTree(name string, writer bool, opts DSOptions) (*BPTree, error) {
	return ds.OpenBPTree(cl.conns[0], name, writer, opts)
}

// CreateMVBST registers a new multi-version BST.
func (cl *Client) CreateMVBST(name string, opts DSOptions) (*MVBST, error) {
	return ds.CreateMVBST(cl.conns[0], name, opts)
}

// OpenMVBST attaches to a multi-version BST.
func (cl *Client) OpenMVBST(name string, writer bool, opts DSOptions) (*MVBST, error) {
	return ds.OpenMVBST(cl.conns[0], name, writer, opts)
}

// CreateMVBPTree registers a new multi-version B+Tree.
func (cl *Client) CreateMVBPTree(name string, opts DSOptions) (*MVBPTree, error) {
	return ds.CreateMVBPTree(cl.conns[0], name, opts)
}

// OpenMVBPTree attaches to a multi-version B+Tree.
func (cl *Client) OpenMVBPTree(name string, writer bool, opts DSOptions) (*MVBPTree, error) {
	return ds.OpenMVBPTree(cl.conns[0], name, writer, opts)
}

// CreatePartitioned creates a key-hash partitioned structure — a
// ds.Sharded with exclusive-writer shards and a static map — spread over
// every connected back-end.
func (cl *Client) CreatePartitioned(kind ds.KVKind, name string, parts int, opts DSOptions) (*Partitioned, error) {
	return ds.CreatePartitioned(cl.conns, kind, name, parts, opts)
}

// OpenPartitioned reopens a sharded structure from its mapping entry
// (ds.OpenSharded: placement and writer discipline come from the entry).
func (cl *Client) OpenPartitioned(name string, writer bool, opts DSOptions) (*Partitioned, error) {
	return ds.OpenSharded(cl.conns, name, writer, opts)
}

// CreateElastic creates a partitioned structure whose mapping table is
// versioned from birth, so partitions can migrate between back-ends
// online (cluster.Ring/PlanMoves/Rebalance via Cluster.Internal, or
// ds.Sharded.BeginMigration directly). OpenPartitioned reopens it;
// the persisted map routes every key to its current home.
func (cl *Client) CreateElastic(kind ds.KVKind, name string, parts int, opts DSOptions) (*Partitioned, error) {
	return ds.CreateElastic(cl.conns, kind, name, parts, opts)
}

// NewTATP creates and populates a TATP database with n subscribers.
func (cl *Client) NewTATP(name string, n uint64, opts DSOptions) (*TATP, error) {
	return txapp.NewTATP(cl.conns[0], name, n, opts)
}

// NewSmallBank creates and populates a SmallBank database with n accounts.
func (cl *Client) NewSmallBank(name string, n uint64, opts DSOptions) (*SmallBank, error) {
	return txapp.NewSmallBank(cl.conns[0], name, n, opts)
}

// OpenTATP attaches to an existing TATP database.
func (cl *Client) OpenTATP(name string, n uint64, writer bool, opts DSOptions) (*TATP, error) {
	return txapp.OpenTATP(cl.conns[0], name, n, writer, opts)
}

// OpenSmallBank attaches to an existing SmallBank database.
func (cl *Client) OpenSmallBank(name string, n uint64, writer bool, opts DSOptions) (*SmallBank, error) {
	return txapp.OpenSmallBank(cl.conns[0], name, n, writer, opts)
}

// Partitionable structure kinds for CreatePartitioned.
const (
	KindBST       = ds.KindBST
	KindBPTree    = ds.KindBPTree
	KindSkipList  = ds.KindSkipList
	KindHashTable = ds.KindHashTable
	KindMVBST     = ds.KindMVBST
	KindMVBPTree  = ds.KindMVBPTree
)

// NewDevice creates a standalone simulated NVM device (for custom
// deployments and tests).
func NewDevice(size int) *nvm.Device { return nvm.NewDevice(size) }
