package core

import (
	"errors"
	"fmt"
	"time"

	"asymnvm/internal/backend"
	"asymnvm/internal/rdma"
	"asymnvm/internal/trace"
)

// RetryPolicy bounds the front-end's response to transient verb faults:
// up to MaxAttempts tries per verb, with exponential backoff charged to
// the node's virtual clock (a real client would spin-wait or re-arm the
// queue pair; either way the time is the client's to pay).
type RetryPolicy struct {
	MaxAttempts int
	BaseBackoff time.Duration // backoff before the 2nd attempt; doubles per retry
	MaxBackoff  time.Duration
}

// DefaultRetryPolicy absorbs short fault bursts (partitions of a handful
// of verbs) while keeping the worst-case added virtual latency under a
// millisecond.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 10, BaseBackoff: 2 * time.Microsecond, MaxBackoff: 256 * time.Microsecond}
}

// SetRetryPolicy replaces the node's verb retry policy.
func (fe *Frontend) SetRetryPolicy(p RetryPolicy) { fe.retry = p }

// RetryPolicy returns the node's verb retry policy.
func (fe *Frontend) RetryPolicy() RetryPolicy { return fe.retry }

// ErrDeadlineExceeded is returned when an armed deadline expires before a
// verb completes. It classifies as permanent: the request is doomed, so
// retrying (and consuming doorbell slots and backoff time) stops here.
var ErrDeadlineExceeded = errors.New("core: operation deadline exceeded")

// SetDeadline arms an absolute virtual-time deadline on the node. Every
// verb issued through the retry loop checks it before each attempt, and
// backoff is clamped to the remaining budget, so a doomed request fails
// with ErrDeadlineExceeded instead of burning its full attempt budget.
// Zero disarms (the zero virtual instant is never a useful deadline).
// Deadlines are owned by the node's operating goroutine, like every other
// piece of writer state.
func (fe *Frontend) SetDeadline(at time.Duration) { fe.deadlineAt = at }

// SetBudget arms a deadline of budget from the node's current virtual
// time — the deadline-propagation entry point for a serving layer that
// hands each request a latency budget.
func (fe *Frontend) SetBudget(budget time.Duration) {
	fe.deadlineAt = fe.clk.Now() + budget
}

// ClearDeadline disarms the deadline.
func (fe *Frontend) ClearDeadline() { fe.deadlineAt = 0 }

// DeadlineLeft reports the remaining budget. ok is false when no deadline
// is armed; a non-positive remainder means the deadline has passed.
func (fe *Frontend) DeadlineLeft() (time.Duration, bool) {
	if fe.deadlineAt == 0 {
		return 0, false
	}
	return fe.deadlineAt - fe.clk.Now(), true
}

// errClass is the outcome of classifying a verb error.
type errClass int

const (
	classPermanent errClass = iota // programming or device error: surface it
	classTransient                 // fabric hiccup: the verb did not execute, retry in place
	classFatal                     // peer gone: fail over, then retry
)

// classify sorts a verb error into the retry taxonomy. In the simulated
// fabric a failed verb never executed remotely (a failed write may leave a
// truncated prefix in the volatile window, which a successful retry simply
// overwrites), so retrying any verb — including CAS and vector writes — is
// idempotent.
func classify(err error) errClass {
	switch {
	case err == nil:
		return classPermanent
	case errors.Is(err, rdma.ErrDisconnected):
		return classFatal
	case errors.Is(err, rdma.ErrInjected):
		return classTransient
	default:
		return classPermanent
	}
}

// SetFailover installs the connection's failover delegate: called when the
// fabric reports the back-end gone, it must return the replacement node
// (after promoting a mirror or restarting the back-end) or an error if no
// replacement exists. The cluster layer installs one that consults lease
// state, so a front-end only fails over once the keep-alive authority has
// declared the back-end dead (§7.2, Case 3/4).
func (c *Conn) SetFailover(f func() (*backend.Backend, error)) { c.failover = f }

// Retarget re-points the connection at a replacement back-end: reconnects
// the endpoint (keeping its fault hook — the injector follows the logical
// connection), rebinds the kick doorbell, and refreshes the observed
// epoch. The RPC sequence is kept: it is monotone per front-end slot and
// the replacement holds a byte-identical response cell, so exactly-once
// RPC semantics carry over.
func (c *Conn) Retarget(bk *backend.Backend) error {
	c.ep.Retarget(bk.Target())
	c.kick = bk.Kick
	c.alive = bk.Alive
	c.backendID = bk.ID()
	epoch, err := c.ep.Load64Quiet(backend.EpochOff)
	if err != nil {
		return err
	}
	c.epoch = epoch
	c.fe.st.Failovers.Add(1)
	c.fe.tr.Event(trace.KindFailover, uint64(bk.ID()))
	return nil
}

// backoffDelay is the exponential backoff charged to the virtual clock
// before attempt+1: BaseBackoff doubled per completed attempt, capped at
// MaxBackoff. The shift is overflow-safe — any attempt deep enough to
// overflow is already past every sane ceiling.
func backoffDelay(pol RetryPolicy, attempt int) time.Duration {
	if pol.BaseBackoff <= 0 || attempt < 1 {
		return 0
	}
	shift := uint(attempt - 1)
	backoff := pol.BaseBackoff
	if shift >= 32 || pol.BaseBackoff<<shift <= 0 {
		backoff = pol.MaxBackoff
		if backoff <= 0 {
			backoff = pol.BaseBackoff
		}
		return backoff
	}
	backoff = pol.BaseBackoff << shift
	if pol.MaxBackoff > 0 && backoff > pol.MaxBackoff {
		backoff = pol.MaxBackoff
	}
	return backoff
}

// clampToDeadline bounds a backoff to the remaining deadline budget.
// hasDeadline=false passes the backoff through; a non-positive remainder
// clamps to zero (the deadline check at the top of the next attempt
// surfaces ErrDeadlineExceeded).
func clampToDeadline(backoff, remaining time.Duration, hasDeadline bool) time.Duration {
	if !hasDeadline || backoff <= remaining {
		return backoff
	}
	if remaining < 0 {
		return 0
	}
	return remaining
}

// do runs one verb closure under the retry/failover policy. Transient
// faults are retried with exponential backoff charged to the virtual
// clock; fatal faults invoke the failover delegate and then retry against
// the replacement. The original error surfaces once the attempt budget is
// exhausted (errors.Is against the rdma sentinels keeps working). An
// armed deadline (SetDeadline/SetBudget) is checked before every attempt
// and becomes the backoff ceiling: a request whose budget ran out fails
// with ErrDeadlineExceeded instead of occupying the fabric further.
func (c *Conn) do(f func() error) error {
	pol := c.fe.retry
	if pol.MaxAttempts < 1 {
		pol.MaxAttempts = 1
	}
	var err error
	for attempt := 1; ; attempt++ {
		if left, armed := c.fe.DeadlineLeft(); armed && left <= 0 {
			c.fe.st.DeadlineMiss.Add(1)
			if err != nil {
				return fmt.Errorf("%w (after %d attempts): %w", ErrDeadlineExceeded, attempt-1, err)
			}
			return ErrDeadlineExceeded
		}
		err = f()
		if err == nil {
			return nil
		}
		switch classify(err) {
		case classPermanent:
			return err
		case classFatal:
			if c.failover == nil {
				return fmt.Errorf("%w (no failover delegate): %w", ErrBackendDown, err)
			}
			bk, foErr := c.failover()
			if foErr != nil {
				return fmt.Errorf("%w: %w (failover: %w)", ErrBackendDown, err, foErr)
			}
			if rtErr := c.Retarget(bk); rtErr != nil {
				return fmt.Errorf("%w: retarget: %w", ErrBackendDown, rtErr)
			}
			// The replacement is live: restart the attempt budget for it.
			attempt = 0
			continue
		case classTransient:
			if attempt >= pol.MaxAttempts {
				return fmt.Errorf("core: giving up after %d attempts: %w", attempt, err)
			}
			if backoff := backoffDelay(pol, attempt); backoff > 0 {
				left, armed := c.fe.DeadlineLeft()
				backoff = clampToDeadline(backoff, left, armed)
				c.fe.clk.Advance(backoff)
				c.fe.tr.Charge(trace.KindRetryBackoff, backoff)
			}
			c.fe.st.VerbRetries.Add(1)
		}
	}
}

// The ep* helpers route every data-path verb through the retry/failover
// policy. Handles and lock code call these instead of touching c.ep
// directly; recovery-internal probes that must not consume fault-schedule
// randomness use the endpoint's Quiet variants.

func (c *Conn) epRead(off uint64, buf []byte) error {
	return c.do(func() error { return c.ep.Read(off, buf) })
}

func (c *Conn) epWrite(off uint64, data []byte) error {
	return c.do(func() error { return c.ep.Write(off, data) })
}

func (c *Conn) epWriteV(ops []rdma.WriteOp) error {
	return c.do(func() error { return c.ep.WriteV(ops) })
}

// pipelined reports whether this connection may post verbs asynchronously
// at the depth currently in force (autotune may have lowered it to 1).
func (c *Conn) pipelined() bool { return c.fe.effDepth() > 1 }

// epReadV is a multi-get: every element is an independent one-sided read.
// With the pipeline enabled all reads are posted to the send queue and
// retired together — the queue-depth cap turns N reads into ceil(N/depth)
// doorbell-group round trips instead of N. Without it the reads issue
// synchronously. The whole group is the retry/failover unit; re-posting
// reads is trivially idempotent.
func (c *Conn) epReadV(ops []rdma.ReadOp) error {
	if len(ops) == 0 {
		return nil
	}
	if !c.pipelined() {
		for _, op := range ops {
			if err := c.epRead(op.Off, op.Buf); err != nil {
				return err
			}
		}
		return nil
	}
	return c.do(func() error {
		toks := make([]rdma.Token, len(ops))
		for i, op := range ops {
			toks[i] = c.ep.PostRead(op.Off, op.Buf)
		}
		c.ep.Doorbell()
		var first error
		for _, tok := range toks {
			if err := c.ep.Wait(tok); err != nil && first == nil {
				first = err
			}
		}
		return first
	})
}

func (c *Conn) epCAS(off uint64, old, new uint64) (prev uint64, swapped bool, err error) {
	err = c.do(func() error {
		var ierr error
		prev, swapped, ierr = c.ep.CompareAndSwap(off, old, new)
		return ierr
	})
	return prev, swapped, err
}

func (c *Conn) epFetchAdd(off uint64, delta uint64) (prev uint64, err error) {
	err = c.do(func() error {
		var ierr error
		prev, ierr = c.ep.FetchAdd(off, delta)
		return ierr
	})
	return prev, err
}

func (c *Conn) epLoad64(off uint64) (v uint64, err error) {
	err = c.do(func() error {
		var ierr error
		v, ierr = c.ep.Load64(off)
		return ierr
	})
	return v, err
}

func (c *Conn) epStore64(off uint64, v uint64) error {
	return c.do(func() error { return c.ep.Store64(off, v) })
}
