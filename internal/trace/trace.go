// Package trace records per-operation spans on the deterministic virtual
// clock. Every actor (front-end, back-end, archive) owns an ActorTracer;
// spans carry virtual-clock timestamps, parent links and a kind, so an
// exported trace shows exactly where the virtual time of an operation
// went: op-log append, commit, cache-miss fetch, verb post/doorbell/
// retire, replay, mirror forward, retry/failover.
//
// Because timestamps come from the virtual clock and span identifiers are
// actor-local, a trace of a seeded run is byte-identical across runs and
// schedules (for frontend actors, whose clocks the simulation drives
// deterministically) — the exporter in export.go leans on that to act as
// a regression oracle.
//
// The disabled path is a nil *ActorTracer: every method nil-checks its
// receiver and returns immediately, so hot paths pay one branch and zero
// allocations when tracing is off.
package trace

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"asymnvm/internal/clock"
	"asymnvm/internal/stats"
)

// Kind identifies what a span or event measured.
type Kind uint8

// Span kinds. Kinds marked (event) are instantaneous markers.
const (
	KindOp            Kind = iota // one data-structure write operation
	KindOpLogFlush                // op-log append flush (durability point)
	KindCommit                    // rnvm_tx_write flush of memory logs
	KindFetch                     // remote read serving a cache miss
	KindCacheHit                  // DRAM cache / overlay hit
	KindVerbRead                  // synchronous RDMA read round trip
	KindVerbWrite                 // synchronous RDMA write round trip
	KindVerbAtomic                // CAS / fetch-add / 64-bit load/store
	KindPost                      // work request posted to the send queue
	KindDoorbell                  // doorbell rung (event; arg = group bytes)
	KindRetireWait                // un-hidden wait for a posted completion
	KindOverlapSaved              // fabric ns hidden by overlap (event; arg = ns)
	KindRPC                       // ring RPC exchange (malloc/free)
	KindRetryBackoff              // virtual-clock backoff before a retry
	KindFailover                  // endpoint retarget (event; arg = injected err count)
	KindReplay                    // back-end: applying one committed tx
	KindMirrorFwd                 // back-end: forwarding bytes to mirrors
	KindCPU                       // fixed per-op CPU charge
	KindCheckpoint                // back-end: compaction checkpoint (apply+truncate)
	KindStripeAcquire             // ordered acquisition of one stripe's writer lock
	KindMirrorRead                // read served from a mirror replica (arg = stale epochs)
	KindCutover                   // migration cutover: map version flip (event; arg = new version)
	NumKinds                      // sentinel
)

var kindNames = [NumKinds]string{
	"op", "oplog.flush", "commit", "fetch", "cache.hit",
	"verb.read", "verb.write", "verb.atomic",
	"post", "doorbell", "retire.wait", "overlap.saved",
	"rpc", "retry.backoff", "failover", "replay", "mirror.fwd", "cpu",
	"checkpoint", "stripe.acquire", "mirror.read", "cutover",
}

// String names the kind as it appears in exported traces.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// kindPhase maps span kinds onto the stats phase breakdown. noPhase marks
// kinds that carry no duration (pure events).
const noPhase = stats.NumPhases

var kindPhase = [NumKinds]stats.Phase{
	KindOp:            stats.PhaseOp,
	KindOpLogFlush:    stats.PhaseOpLogFlush,
	KindCommit:        stats.PhaseCommit,
	KindFetch:         stats.PhaseFetch,
	KindCacheHit:      stats.PhaseCacheHit,
	KindVerbRead:      stats.PhaseVerb,
	KindVerbWrite:     stats.PhaseVerb,
	KindVerbAtomic:    stats.PhaseVerb,
	KindPost:          stats.PhasePost,
	KindDoorbell:      noPhase,
	KindRetireWait:    stats.PhaseRetireWait,
	KindOverlapSaved:  noPhase,
	KindRPC:           stats.PhaseRPC,
	KindRetryBackoff:  stats.PhaseRetry,
	KindFailover:      noPhase,
	KindReplay:        stats.PhaseReplay,
	KindMirrorFwd:     stats.PhaseMirror,
	KindCPU:           stats.PhaseCPU,
	KindCheckpoint:    stats.PhaseReplay,
	KindStripeAcquire: stats.PhaseOp,
	KindMirrorRead:    stats.PhaseFetch,
	KindCutover:       noPhase,
}

// attributable reports span kinds that round trips are attributed to:
// the innermost open span of an attributable kind is charged for each
// round trip the fabric pays (round-trip attribution).
var attributable = [NumKinds]bool{
	KindOp: true, KindOpLogFlush: true, KindCommit: true,
	KindFetch: true, KindRPC: true, KindRetryBackoff: true,
}

// Span is one recorded interval (or event, when Dur == 0 and the kind is
// an event kind) on an actor's virtual clock.
type Span struct {
	Kind   Kind
	Start  int64 // virtual ns at Begin
	Dur    int64 // virtual ns between Begin and End
	Parent int32 // index of enclosing span in the same actor, -1 at top level
	Arg    uint64
}

// frame is one entry of the open-span stack.
type frame struct {
	idx     int32 // index into spans
	kind    Kind
	childNS int64 // virtual ns consumed by already-closed children
}

// ActorTracer records the spans of a single actor. All methods are safe
// on a nil receiver (tracing disabled) and are internally locked so a
// concurrent exporter (e.g. the /debug/trace endpoint) sees a consistent
// snapshot; an actor itself must still call Begin/End from one goroutine.
type ActorTracer struct {
	mu      sync.Mutex
	name    string
	clk     clock.Clock
	st      *stats.Stats
	startNS int64
	spans   []Span
	stack   []frame
	selfNS  [NumKinds]int64 // per-kind self time (excl. nested spans)
	verbs   [NumKinds]int64 // round trips attributed per kind
	overlap int64           // sum of KindOverlapSaved args
}

// Begin opens a span of kind k at the current virtual time.
func (a *ActorTracer) Begin(k Kind) { a.BeginArg(k, 0) }

// BeginArg opens a span with an argument (bytes, address, …).
//
// Operations never nest: opening a KindOp span while a previous one is
// still dangling (an operation bailed out on an error path without
// reaching its EndOp) first unwinds the stack through the stale frame,
// so one failed operation cannot mis-nest the rest of the trace.
func (a *ActorTracer) BeginArg(k Kind, arg uint64) {
	if a == nil {
		return
	}
	a.mu.Lock()
	if k == KindOp {
		for i := len(a.stack) - 1; i >= 0; i-- {
			if a.stack[i].kind == KindOp {
				for len(a.stack) > i {
					a.endLocked()
				}
				break
			}
		}
	}
	idx := int32(len(a.spans))
	parent := int32(-1)
	if n := len(a.stack); n > 0 {
		parent = a.stack[n-1].idx
	}
	a.spans = append(a.spans, Span{Kind: k, Start: int64(a.clk.Now()), Parent: parent, Arg: arg})
	a.stack = append(a.stack, frame{idx: idx, kind: k})
	a.mu.Unlock()
}

// End closes the innermost open span, computing its duration from the
// virtual clock, accounting self time, and feeding the stats phase
// histogram. End on an empty stack is a no-op.
func (a *ActorTracer) End() {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.endLocked()
	a.mu.Unlock()
}

// endLocked closes the innermost open span. Caller holds a.mu.
func (a *ActorTracer) endLocked() {
	n := len(a.stack)
	if n == 0 {
		return
	}
	fr := a.stack[n-1]
	a.stack = a.stack[:n-1]
	sp := &a.spans[fr.idx]
	sp.Dur = int64(a.clk.Now()) - sp.Start
	self := sp.Dur - fr.childNS
	a.closeAccount(fr.kind, sp.Dur, self)
}

// Charge records a complete span of duration d ending now: the caller
// advanced the virtual clock by d inline (CPU charge, DRAM access, retry
// backoff, WR issue) and attributes it to kind k.
func (a *ActorTracer) Charge(k Kind, d time.Duration) {
	if a == nil || d <= 0 {
		return
	}
	a.mu.Lock()
	now := int64(a.clk.Now())
	parent := int32(-1)
	if n := len(a.stack); n > 0 {
		parent = a.stack[n-1].idx
	}
	a.spans = append(a.spans, Span{Kind: k, Start: now - int64(d), Dur: int64(d), Parent: parent})
	a.closeAccount(k, int64(d), int64(d))
	a.mu.Unlock()
}

// Event records an instantaneous marker (doorbell, failover, overlap
// credit). Events consume no actor time.
func (a *ActorTracer) Event(k Kind, arg uint64) {
	if a == nil {
		return
	}
	a.mu.Lock()
	parent := int32(-1)
	if n := len(a.stack); n > 0 {
		parent = a.stack[n-1].idx
	}
	a.spans = append(a.spans, Span{Kind: k, Start: int64(a.clk.Now()), Parent: parent, Arg: arg})
	if k == KindOverlapSaved {
		a.overlap += int64(arg)
	}
	a.mu.Unlock()
}

// CountVerb attributes one fabric round trip to the innermost open span
// of an attributable kind (op / op-log flush / commit / fetch / RPC).
func (a *ActorTracer) CountVerb() {
	if a == nil {
		return
	}
	a.mu.Lock()
	for i := len(a.stack) - 1; i >= 0; i-- {
		k := a.stack[i].kind
		if attributable[k] {
			a.verbs[k]++
			if a.st != nil {
				a.st.Phase[kindPhase[k]].Verbs.Add(1)
			}
			break
		}
	}
	a.mu.Unlock()
}

// closeAccount books a closed span: parent child-time, per-kind self
// time, and the stats phase histogram. Caller holds a.mu.
func (a *ActorTracer) closeAccount(k Kind, dur, self int64) {
	if n := len(a.stack); n > 0 {
		a.stack[n-1].childNS += dur
	}
	if self < 0 {
		self = 0
	}
	a.selfNS[k] += self
	if a.st != nil {
		if p := kindPhase[k]; p != noPhase {
			ps := &a.st.Phase[p]
			ps.Hist.Observe(dur)
			ps.SelfNS.Add(self)
		}
	}
}

// Elapsed is the actor's virtual time since the tracer was created.
func (a *ActorTracer) Elapsed() int64 {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return int64(a.clk.Now()) - a.startNS
}

// SelfNS returns per-kind self time in virtual ns (a copy).
func (a *ActorTracer) SelfNS() [NumKinds]int64 {
	if a == nil {
		return [NumKinds]int64{}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.selfNS
}

// VerbsByKind returns the round trips attributed per kind (a copy).
func (a *ActorTracer) VerbsByKind() [NumKinds]int64 {
	if a == nil {
		return [NumKinds]int64{}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.verbs
}

// OverlapNS is the total fabric latency hidden by overlap, as traced.
func (a *ActorTracer) OverlapNS() int64 {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.overlap
}

// Spans returns a snapshot copy of the recorded spans.
func (a *ActorTracer) Spans() []Span {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]Span, len(a.spans))
	copy(out, a.spans)
	return out
}

// Name is the actor's registered name.
func (a *ActorTracer) Name() string {
	if a == nil {
		return ""
	}
	return a.name
}

// Stats is the actor's stats sink (may be nil). Live metrics endpoints
// use it to enumerate per-actor counters without separate plumbing.
func (a *ActorTracer) Stats() *stats.Stats {
	if a == nil {
		return nil
	}
	return a.st
}

// Tracer is the registry of per-actor tracers for one run. A nil *Tracer
// is the disabled tracer: Actor returns nil and every downstream call is
// a cheap no-op.
type Tracer struct {
	mu     sync.Mutex
	actors map[string]*ActorTracer
}

// New creates an enabled tracer.
func New() *Tracer {
	return &Tracer{actors: make(map[string]*ActorTracer)}
}

// Actor returns the tracer for the named actor, creating it on first use
// with the actor's clock and optional stats sink. Returns nil when the
// Tracer itself is nil (tracing disabled).
func (t *Tracer) Actor(name string, clk clock.Clock, st *stats.Stats) *ActorTracer {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if a, ok := t.actors[name]; ok {
		if a.clk == clk && a.st == st {
			return a
		}
		// A fresh incarnation (new clock or stats) registering under a
		// taken name gets a numbered alias, so a long-lived tracer that
		// spans several runs keeps incarnations apart instead of mixing
		// their spans on one timeline.
		base := name
		for n := 2; ; n++ {
			name = fmt.Sprintf("%s#%d", base, n)
			if _, ok := t.actors[name]; !ok {
				break
			}
		}
	}
	if clk == nil {
		clk = clock.Zero
	}
	a := &ActorTracer{name: name, clk: clk, st: st, startNS: int64(clk.Now())}
	t.actors[name] = a
	return a
}

// Actors returns the registered actor tracers sorted by name, so export
// order is deterministic.
func (t *Tracer) Actors() []*ActorTracer {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*ActorTracer, 0, len(t.actors))
	for _, a := range t.actors {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}
