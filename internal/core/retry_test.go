package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"asymnvm/internal/backend"
	"asymnvm/internal/rdma"
)

// TestTransientVerbRetried: a burst of injected faults shorter than the
// attempt budget is absorbed transparently, counted, and charged to the
// virtual clock as backoff.
func TestTransientVerbRetried(t *testing.T) {
	r := newRig(t, 8<<20)
	fe := r.frontend(1, ModeR())
	c := r.connect(fe)
	fails := 3
	c.Endpoint().SetFault(func(op rdma.Op, off uint64, n int) rdma.Fault {
		if op == rdma.OpRead && fails > 0 {
			fails--
			return rdma.Fault{Err: rdma.ErrInjected}
		}
		return rdma.Fault{}
	})
	before := fe.Clock().Now()
	buf := make([]byte, 8)
	if err := c.epRead(0, buf); err != nil {
		t.Fatalf("3 transient faults within a 10-attempt budget must be absorbed: %v", err)
	}
	if got := fe.Stats().VerbRetries.Load(); got != 3 {
		t.Fatalf("VerbRetries = %d, want 3", got)
	}
	// Backoff 2µs + 4µs + 8µs; the zero profile charges nothing else.
	if d := fe.Clock().Now() - before; d < 14*time.Microsecond {
		t.Fatalf("backoff must be charged to the virtual clock, advanced only %v", d)
	}
}

// TestRetryExhaustion: a fault outliving the budget surfaces the original
// sentinel wrapped in a giving-up error.
func TestRetryExhaustion(t *testing.T) {
	r := newRig(t, 8<<20)
	fe := r.frontend(1, ModeR())
	fe.SetRetryPolicy(RetryPolicy{MaxAttempts: 4, BaseBackoff: time.Microsecond, MaxBackoff: 2 * time.Microsecond})
	c := r.connect(fe)
	c.Endpoint().SetFault(func(op rdma.Op, off uint64, n int) rdma.Fault {
		if op == rdma.OpRead {
			return rdma.Fault{Err: rdma.ErrInjected}
		}
		return rdma.Fault{}
	})
	err := c.epRead(0, make([]byte, 8))
	if !errors.Is(err, rdma.ErrInjected) {
		t.Fatalf("exhaustion must surface the sentinel: %v", err)
	}
	if !strings.Contains(err.Error(), "giving up after 4 attempts") {
		t.Fatalf("error must report the attempt budget: %v", err)
	}
	if got := fe.Stats().VerbRetries.Load(); got != 3 {
		t.Fatalf("VerbRetries = %d, want 3 (4 attempts)", got)
	}
}

// TestFatalFaultFailsOver: a disconnect invokes the failover delegate,
// re-targets the endpoint, and the verb completes against the
// replacement with a fresh attempt budget.
func TestFatalFaultFailsOver(t *testing.T) {
	r := newRig(t, 8<<20)
	fe := r.frontend(1, ModeR())
	c := r.connect(fe)
	dead := true
	c.Endpoint().SetFault(func(op rdma.Op, off uint64, n int) rdma.Fault {
		if dead {
			return rdma.Fault{Err: rdma.ErrDisconnected}
		}
		return rdma.Fault{}
	})
	calls := 0
	c.SetFailover(func() (*backend.Backend, error) {
		calls++
		dead = false // the "replacement" is the same node, now reachable
		return r.bk, nil
	})
	if err := c.epStore64(backend.HeaderSize, 7); err != nil {
		t.Fatalf("verb must complete after failover: %v", err)
	}
	if calls != 1 {
		t.Fatalf("failover delegate called %d times, want 1", calls)
	}
	if got := fe.Stats().Failovers.Load(); got != 1 {
		t.Fatalf("Failovers = %d, want 1", got)
	}
	if v, _ := c.Endpoint().Load64Quiet(backend.HeaderSize); v != 7 {
		t.Fatalf("store after failover read back %d", v)
	}
}

// TestFatalWithoutDelegate: with nobody to fail over to, the error class
// surfaces as ErrBackendDown.
func TestFatalWithoutDelegate(t *testing.T) {
	r := newRig(t, 8<<20)
	c := r.connect(r.frontend(1, ModeR()))
	c.Endpoint().SetFault(func(rdma.Op, uint64, int) rdma.Fault {
		return rdma.Fault{Err: rdma.ErrDisconnected}
	})
	err := c.epRead(0, make([]byte, 8))
	if !errors.Is(err, ErrBackendDown) {
		t.Fatalf("want ErrBackendDown, got %v", err)
	}
	if !errors.Is(err, rdma.ErrDisconnected) {
		t.Fatalf("cause must stay unwrappable: %v", err)
	}
}

// TestRPCRetriesWholeExchange: an RPC whose request write faults is
// re-driven end to end with the same sequence number — the allocation
// happens exactly once.
func TestRPCRetriesWholeExchange(t *testing.T) {
	r := newRig(t, 8<<20)
	fe := r.frontend(1, ModeR())
	c := r.connect(fe)
	fails := 2
	c.Endpoint().SetFault(func(op rdma.Op, off uint64, n int) rdma.Fault {
		if op == rdma.OpWrite && fails > 0 {
			fails--
			return rdma.Fault{Err: rdma.ErrInjected}
		}
		return rdma.Fault{}
	})
	a1, err := c.Malloc(4096)
	if err != nil {
		t.Fatalf("faulted malloc: %v", err)
	}
	c.Endpoint().SetFault(nil)
	a2, err := c.Malloc(4096)
	if err != nil {
		t.Fatal(err)
	}
	if a1 == a2 {
		t.Fatal("retried RPC must not double-allocate")
	}
	if got := fe.Stats().VerbRetries.Load(); got < 2 {
		t.Fatalf("VerbRetries = %d, want >= 2", got)
	}
}

// TestClassify pins the error taxonomy: the retry loop's whole behavior
// hangs on which of the three classes an error falls into, including
// wrapped forms (errors.Is must see through fmt.Errorf chains) and the
// deadline sentinel, which is permanent by design — a doomed request
// must not burn further attempts.
func TestClassify(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want errClass
	}{
		{"nil", nil, classPermanent},
		{"injected", rdma.ErrInjected, classTransient},
		{"injected wrapped", fmt.Errorf("verb: %w", rdma.ErrInjected), classTransient},
		{"disconnected", rdma.ErrDisconnected, classFatal},
		{"disconnected wrapped", fmt.Errorf("flush: %w", rdma.ErrDisconnected), classFatal},
		{"deadline", ErrDeadlineExceeded, classPermanent},
		{"bounds", errors.New("bounds"), classPermanent},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := classify(tc.err); got != tc.want {
				t.Errorf("classify(%v) = %d, want %d", tc.err, got, tc.want)
			}
		})
	}
}

// TestBackoffDelay pins the backoff ceiling math: exponential doubling
// from BaseBackoff, capped at MaxBackoff, with deep attempts saturating
// at the cap instead of overflowing the shift.
func TestBackoffDelay(t *testing.T) {
	pol := RetryPolicy{MaxAttempts: 10, BaseBackoff: 2 * time.Microsecond, MaxBackoff: 256 * time.Microsecond}
	cases := []struct {
		name    string
		pol     RetryPolicy
		attempt int
		want    time.Duration
	}{
		{"first retry", pol, 1, 2 * time.Microsecond},
		{"doubles", pol, 2, 4 * time.Microsecond},
		{"doubles again", pol, 3, 8 * time.Microsecond},
		{"hits ceiling exactly", pol, 8, 256 * time.Microsecond},
		{"clamped past ceiling", pol, 9, 256 * time.Microsecond},
		{"deep attempt saturates", pol, 40, 256 * time.Microsecond},
		{"overflow-deep attempt saturates", pol, 1000, 256 * time.Microsecond},
		{"attempt zero charges nothing", pol, 0, 0},
		{"no base disables backoff", RetryPolicy{MaxAttempts: 5}, 3, 0},
		{"no ceiling keeps doubling", RetryPolicy{BaseBackoff: time.Microsecond}, 5, 16 * time.Microsecond},
		{"overflow without ceiling falls back to base",
			RetryPolicy{BaseBackoff: time.Microsecond}, 200, time.Microsecond},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := backoffDelay(tc.pol, tc.attempt); got != tc.want {
				t.Errorf("backoffDelay(%+v, %d) = %v, want %v", tc.pol, tc.attempt, got, tc.want)
			}
		})
	}
}

// TestClampToDeadline pins the deadline-propagation arithmetic: backoff
// never sleeps past the remaining budget, and an already-blown budget
// clamps to zero so the next attempt's deadline check fires immediately.
func TestClampToDeadline(t *testing.T) {
	cases := []struct {
		name               string
		backoff, remaining time.Duration
		hasDeadline        bool
		want               time.Duration
	}{
		{"no deadline passes through", 8 * time.Microsecond, 0, false, 8 * time.Microsecond},
		{"fits inside budget", 8 * time.Microsecond, 20 * time.Microsecond, true, 8 * time.Microsecond},
		{"exactly the budget", 8 * time.Microsecond, 8 * time.Microsecond, true, 8 * time.Microsecond},
		{"clamped to remainder", 8 * time.Microsecond, 3 * time.Microsecond, true, 3 * time.Microsecond},
		{"budget already blown", 8 * time.Microsecond, -time.Microsecond, true, 0},
		{"zero remainder", 8 * time.Microsecond, 0, true, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := clampToDeadline(tc.backoff, tc.remaining, tc.hasDeadline); got != tc.want {
				t.Errorf("clampToDeadline(%v, %v, %v) = %v, want %v",
					tc.backoff, tc.remaining, tc.hasDeadline, got, tc.want)
			}
		})
	}
}

// TestDeadlineShortCircuit: an expired deadline fails the verb before
// the fabric is touched — no attempt, no retry, just the sentinel and a
// DeadlineMiss count.
func TestDeadlineShortCircuit(t *testing.T) {
	r := newRig(t, 8<<20)
	fe := r.frontend(1, ModeR())
	c := r.connect(fe)
	touched := 0
	c.Endpoint().SetFault(func(rdma.Op, uint64, int) rdma.Fault {
		touched++
		return rdma.Fault{}
	})
	// Arm a non-zero instant (zero disarms), then let the clock pass it.
	fe.Clock().Advance(time.Microsecond)
	fe.SetDeadline(fe.Clock().Now())
	fe.Clock().Advance(time.Microsecond)
	err := c.epRead(0, make([]byte, 8))
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("expired deadline must short-circuit: %v", err)
	}
	if touched != 0 {
		t.Fatalf("fabric touched %d times after expiry, want 0", touched)
	}
	if got := fe.Stats().DeadlineMiss.Load(); got != 1 {
		t.Fatalf("DeadlineMiss = %d, want 1", got)
	}
	fe.ClearDeadline()
	if err := c.epRead(0, make([]byte, 8)); err != nil {
		t.Fatalf("cleared deadline must restore service: %v", err)
	}
}

// TestDeadlineBoundsRetryBackoff: a transient burst under an armed
// budget gives up with ErrDeadlineExceeded (wrapping the transient
// cause) once backoff — clamped to the remainder — uses the budget up,
// instead of riding out the full attempt schedule.
func TestDeadlineBoundsRetryBackoff(t *testing.T) {
	r := newRig(t, 8<<20)
	fe := r.frontend(1, ModeR())
	fe.SetRetryPolicy(RetryPolicy{MaxAttempts: 100, BaseBackoff: 4 * time.Microsecond, MaxBackoff: 64 * time.Microsecond})
	c := r.connect(fe)
	c.Endpoint().SetFault(func(op rdma.Op, off uint64, n int) rdma.Fault {
		if op == rdma.OpRead {
			return rdma.Fault{Err: rdma.ErrInjected}
		}
		return rdma.Fault{}
	})
	const budget = 20 * time.Microsecond
	fe.SetBudget(budget)
	start := fe.Clock().Now()
	err := c.epRead(0, make([]byte, 8))
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("budget must bound the retry loop: %v", err)
	}
	if !errors.Is(err, rdma.ErrInjected) {
		t.Fatalf("the transient cause must stay unwrappable: %v", err)
	}
	// Backoff was clamped to the remainder every time: the clock never
	// runs past the deadline.
	if spent := fe.Clock().Now() - start; spent > budget {
		t.Fatalf("retry loop slept %v past a %v budget", spent, budget)
	}
	if got := fe.Stats().VerbRetries.Load(); got == 0 || got >= 99 {
		t.Fatalf("VerbRetries = %d, want a few attempts, far under the 100-attempt schedule", got)
	}
}

// TestSetBudgetArmsFromNow pins the serving layer's entry point:
// SetBudget measures from the node's current virtual instant, and
// DeadlineLeft tracks clock advances.
func TestSetBudgetArmsFromNow(t *testing.T) {
	r := newRig(t, 8<<20)
	fe := r.frontend(1, ModeR())
	if _, armed := fe.DeadlineLeft(); armed {
		t.Fatal("fresh front-end must have no deadline armed")
	}
	fe.Clock().Advance(time.Millisecond)
	fe.SetBudget(10 * time.Microsecond)
	if left, armed := fe.DeadlineLeft(); !armed || left != 10*time.Microsecond {
		t.Fatalf("DeadlineLeft = %v/%v, want 10µs armed", left, armed)
	}
	fe.Clock().Advance(4 * time.Microsecond)
	if left, _ := fe.DeadlineLeft(); left != 6*time.Microsecond {
		t.Fatalf("DeadlineLeft after advance = %v, want 6µs", left)
	}
	fe.ClearDeadline()
	if _, armed := fe.DeadlineLeft(); armed {
		t.Fatal("ClearDeadline must disarm")
	}
}
