package mem

import (
	"errors"
	"testing"
)

func TestGlobalsZeroFilled(t *testing.T) {
	m := New()
	base := m.MapGlobals(4)
	for i := int64(0); i < 4; i++ {
		v, _, err := m.Load(base + i)
		if err != nil || v != 0 {
			t.Fatalf("cell %d: v=%d err=%v", i, v, err)
		}
	}
}

func TestLoadStoreRoundTrip(t *testing.T) {
	m := New()
	base := m.MapGlobals(2)
	if err := m.Store(base, 42, nil); err != nil {
		t.Fatal(err)
	}
	v, _, err := m.Load(base)
	if err != nil || v != 42 {
		t.Fatalf("v=%d err=%v", v, err)
	}
}

func TestNullDereference(t *testing.T) {
	m := New()
	if _, _, err := m.Load(0); err == nil {
		t.Fatal("NULL read did not fault")
	} else {
		var f *Fault
		if !errors.As(err, &f) || f.Kind != LoadFault {
			t.Fatalf("wrong fault: %v", err)
		}
	}
	if err := m.Store(0, 1, nil); err == nil {
		t.Fatal("NULL write did not fault")
	}
}

func TestUnmappedAccess(t *testing.T) {
	m := New()
	base, err := m.Alloc(2)
	if err != nil {
		t.Fatal(err)
	}
	// Within the region: fine.
	if _, _, err := m.Load(base + 1); err != nil {
		t.Fatal(err)
	}
	// One past the end: guard gap faults (heap overflow detection).
	if _, _, err := m.Load(base + 2); err == nil {
		t.Fatal("overflow read did not fault")
	}
	if err := m.Store(base+2, 9, nil); err == nil {
		t.Fatal("overflow write did not fault")
	}
}

func TestAllocDistinct(t *testing.T) {
	m := New()
	a, _ := m.Alloc(1)
	b, _ := m.Alloc(1)
	if a == b {
		t.Fatal("two allocations share an address")
	}
	if a == 0 || b == 0 {
		t.Fatal("allocation returned NULL")
	}
}

func TestAllocZeroSize(t *testing.T) {
	m := New()
	a, err := m.Alloc(0)
	if err != nil || a == 0 {
		t.Fatalf("malloc(0): a=%d err=%v", a, err)
	}
	b, _ := m.Alloc(0)
	if a == b {
		t.Fatal("malloc(0) results should be distinct")
	}
}

func TestAllocNegative(t *testing.T) {
	m := New()
	if _, err := m.Alloc(-1); err == nil {
		t.Fatal("negative allocation should fail")
	}
}

func TestFree(t *testing.T) {
	m := New()
	a, _ := m.Alloc(3)
	if err := m.Free(a); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Load(a); err == nil {
		t.Fatal("use after free did not fault")
	}
	if err := m.Free(a); err == nil {
		t.Fatal("double free did not fault")
	}
	if err := m.Free(0); err != nil {
		t.Fatalf("free(NULL) must be a no-op, got %v", err)
	}
	if err := m.Free(12345); err == nil {
		t.Fatal("freeing a wild pointer did not fault")
	}
	// Freeing an interior pointer is a fault too.
	b, _ := m.Alloc(3)
	if err := m.Free(b + 1); err == nil {
		t.Fatal("freeing an interior pointer did not fault")
	}
}

func TestFrames(t *testing.T) {
	m := New()
	f1 := m.PushFrame(4)
	if err := m.Store(f1+3, 7, nil); err != nil {
		t.Fatal(err)
	}
	f2 := m.PushFrame(2)
	if f2 <= f1 {
		t.Fatal("frames should grow upward")
	}
	m.PopFrame(f2, 2)
	if _, _, err := m.Load(f2); err == nil {
		t.Fatal("popped frame still accessible")
	}
	// Pushing again reuses the address space, zero-filled.
	f3 := m.PushFrame(2)
	if f3 != f2 {
		t.Fatalf("expected frame address reuse: %d vs %d", f3, f2)
	}
	v, _, err := m.Load(f3)
	if err != nil || v != 0 {
		t.Fatalf("recycled frame not zeroed: v=%d err=%v", v, err)
	}
	m.PopFrame(f3, 2)
	m.PopFrame(f1, 4)
}

func TestRegionsDisjoint(t *testing.T) {
	m := New()
	g := m.MapGlobals(10)
	f := m.PushFrame(10)
	h, _ := m.Alloc(10)
	if !(g < f && f < h) {
		t.Fatalf("layout order violated: g=%d f=%d h=%d", g, f, h)
	}
}

func TestLiveRegions(t *testing.T) {
	m := New()
	a, _ := m.Alloc(1)
	_, _ = m.Alloc(1)
	if m.LiveRegions() != 2 {
		t.Fatalf("live = %d", m.LiveRegions())
	}
	_ = m.Free(a)
	if m.LiveRegions() != 1 {
		t.Fatalf("live = %d after free", m.LiveRegions())
	}
}

func TestFaultMessages(t *testing.T) {
	nullRead := &Fault{Kind: LoadFault, Addr: 0}
	if got := nullRead.Error(); got != "segmentation fault: NULL pointer invalid read" {
		t.Errorf("message %q", got)
	}
	wild := &Fault{Kind: StoreFault, Addr: 99}
	if got := wild.Error(); got != "segmentation fault: invalid write at address 99" {
		t.Errorf("message %q", got)
	}
}
