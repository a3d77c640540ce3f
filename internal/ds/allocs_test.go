package ds

import (
	"testing"

	"asymnvm/internal/core"
)

// TestHotPathAllocsUntraced pins the per-operation allocation counts of
// the Get/Put hot path with tracing disabled (the default: no tracer is
// installed, every trace call is a nil-receiver no-op). The tracing plane
// must stay free when off — if these ceilings rise, a trace-path
// allocation leaked onto the hot path.
func TestHotPathAllocsUntraced(t *testing.T) {
	r := newRig(t)
	c := r.conn(1, core.ModeRC(1<<20))
	ht, err := CreateHashTable(c, "allocs", Options{Create: testCreate})
	if err != nil {
		t.Fatal(err)
	}
	val := make([]byte, 32)
	// Warm the structure, cache and log areas so steady state is measured.
	for i := 0; i < 256; i++ {
		if err := ht.Put(uint64(i%16+1), val); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ht.Get(uint64(i%16 + 1)); err != nil {
			t.Fatal(err)
		}
	}

	putAllocs := testing.AllocsPerRun(200, func() {
		if err := ht.Put(3, val); err != nil {
			t.Fatal(err)
		}
	})
	getAllocs := testing.AllocsPerRun(200, func() {
		if _, _, err := ht.Get(3); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("untraced hot path: put=%.1f get=%.1f allocs/op", putAllocs, getAllocs)

	// Ceilings bound regressions; they are not targets: one above the
	// measured steady-state counts (put 8: the commit flush builds its
	// vector in the handle's reused scratch and allocates nothing).
	const putCeiling, getCeiling = 9, 4
	if putAllocs > putCeiling {
		t.Errorf("Put allocates %.1f/op untraced, ceiling %d", putAllocs, putCeiling)
	}
	if getAllocs > getCeiling {
		t.Errorf("Get allocates %.1f/op untraced, ceiling %d", getAllocs, getCeiling)
	}
}
