// Package mem implements the RAM-machine memory M of Sec. 2.2: a mapping
// from addresses to word values, updated with M + [m -> v].
//
// The address space is partitioned into a global region, a stack of call
// frames, and a heap.  Only explicitly mapped cells are accessible;
// loads or stores elsewhere fault, which is how DART observes the crash
// bugs (NULL and wild pointer dereferences) of the oSIP experiment.
// Heap regions are separated by guard gaps so small overflows fault
// instead of silently landing in a neighboring object.
//
// Each of the three regions is a flat array of cells, a parallel array
// of their symbolic shadows (the machine's symbolic memory S), and two
// bitmaps: "mapped" (is the cell accessible) and "taint" (does the cell
// carry a live shadow; a shadow slot is read only where it is set).  The
// taint bitmap lets the execution engine skip symbolic shadow evaluation
// for instructions whose operands are provably concrete.  Every path
// that clears a taint bit (concrete overwrite, frame pop, free, Reset)
// also drops the slot's form, so no slot pins a dead form across runs.
package mem

import (
	"fmt"
	"slices"

	"dart/internal/symbolic"
)

// Address space layout (cell addresses).
const (
	GlobalBase = int64(1) << 20
	StackBase  = int64(1) << 24
	HeapBase   = int64(1) << 28

	// guardGap is the number of unmapped cells between heap regions.
	guardGap = 16
)

// FaultKind classifies a memory fault.
type FaultKind int

// Fault kinds.
const (
	LoadFault FaultKind = iota
	StoreFault
	FreeFault
	OOMFault
)

func (k FaultKind) String() string {
	switch k {
	case LoadFault:
		return "invalid read"
	case StoreFault:
		return "invalid write"
	case FreeFault:
		return "invalid free"
	case OOMFault:
		return "allocation failure"
	}
	return "memory fault"
}

// Fault is a memory access error; address 0 faults are NULL dereferences.
type Fault struct {
	Kind FaultKind
	Addr int64
}

func (f *Fault) Error() string {
	if f.Addr == 0 && (f.Kind == LoadFault || f.Kind == StoreFault) {
		return fmt.Sprintf("segmentation fault: NULL pointer %s", f.Kind)
	}
	return fmt.Sprintf("segmentation fault: %s at address %d", f.Kind, f.Addr)
}

// region is one contiguous slab of the address space.  vals holds cell
// values and sym their shadows (grown on the first shadow stored, so a
// concrete run has none); mapped and taint are per-cell bitmaps (64
// cells per word).  Slices only ever grow (high-water mark); Reset zeroes
// the bitmaps but keeps the capacity so a pooled machine's N runs share
// one footprint.
type region struct {
	vals   []int64
	sym    []*symbolic.Lin
	mapped []uint64
	taint  []uint64
}

func words(cells int64) int64 { return (cells + 63) >> 6 }

func getBit(w []uint64, i int64) bool { return w[i>>6]&(1<<uint(i&63)) != 0 }
func setBit(w []uint64, i int64)      { w[i>>6] |= 1 << uint(i&63) }
func clearBit(w []uint64, i int64)    { w[i>>6] &^= 1 << uint(i&63) }

// fillRange sets bits [lo, hi) to on, word-at-a-time.
func fillRange(w []uint64, lo, hi int64, on bool) {
	word := uint64(0)
	if on {
		word = ^word
	}
	for i := lo; i < hi; i++ {
		if i&63 == 0 && hi-i >= 64 {
			w[i>>6] = word
			i += 63
		} else if on {
			setBit(w, i)
		} else {
			clearBit(w, i)
		}
	}
}

// ensure grows the region's backing arrays to cover at least n cells.
func (r *region) ensure(n int64) {
	if int64(len(r.vals)) >= n {
		return
	}
	if int64(cap(r.vals)) >= n {
		r.vals = r.vals[:n]
	} else {
		nv := make([]int64, n, n+n/2)
		copy(nv, r.vals)
		r.vals = nv
	}
	nw := words(int64(len(r.vals)))
	for int64(len(r.mapped)) < nw {
		r.mapped = append(r.mapped, 0)
	}
	for int64(len(r.taint)) < nw {
		r.taint = append(r.taint, 0)
	}
}

// mapRange makes cells [off, off+n) accessible, zero-filled and untainted.
func (r *region) mapRange(off, n int64) {
	r.ensure(off + n)
	clear(r.vals[off : off+n])
	fillRange(r.mapped, off, off+n, true)
	r.untaint(off, off+n)
}

// unmapRange makes cells [off, off+n) inaccessible and drops their taint.
func (r *region) unmapRange(off, n int64) {
	fillRange(r.mapped, off, off+n, false)
	r.untaint(off, off+n)
}

// untaint clears the taint bits of cells [lo, hi), dropping the shadows
// of the tainted ones; an untainted word is skipped whole.
func (r *region) untaint(lo, hi int64) {
	for i := lo; i < hi; i++ {
		if r.taint[i>>6] == 0 {
			i |= 63
		} else if getBit(r.taint, i) {
			r.sym[i] = nil
			clearBit(r.taint, i)
		}
	}
}

// reset unmaps everything, keeping the high-water capacity.
func (r *region) reset() {
	clear(r.mapped)
	r.untaint(0, int64(len(r.vals)))
}

// M is the machine memory.
type M struct {
	global region
	stack  region
	heap   region

	globalNext int64
	stackNext  int64
	heapNext   int64
}

// New returns an empty memory.
func New() *M {
	return &M{
		globalNext: GlobalBase,
		stackNext:  StackBase,
		heapNext:   HeapBase,
	}
}

// Reset unmaps everything — globals, frames, heap regions, and all taint
// bits — restoring the address allocators, while keeping the backing
// arrays' capacity so a pooled machine reuses one allocation footprint.
func (m *M) Reset() {
	m.global.reset()
	m.stack.reset()
	m.heap.reset()
	m.globalNext = GlobalBase
	m.stackNext = StackBase
	m.heapNext = HeapBase
}

// locate resolves addr to its region and cell offset; ok is false when
// the address lies outside every region's mapped span.
func (m *M) locate(addr int64) (r *region, off int64, ok bool) {
	switch {
	case addr >= HeapBase:
		r, off = &m.heap, addr-HeapBase
	case addr >= StackBase:
		r, off = &m.stack, addr-StackBase
	case addr >= GlobalBase:
		r, off = &m.global, addr-GlobalBase
	default:
		return nil, 0, false
	}
	if off >= int64(len(r.vals)) || !getBit(r.mapped, off) {
		return nil, 0, false
	}
	return r, off, true
}

// MapGlobals maps the global region of the given size (zero-filled) and
// returns its base address.
func (m *M) MapGlobals(size int64) int64 {
	base := m.globalNext
	m.global.mapRange(base-GlobalBase, size)
	m.globalNext += size + guardGap
	return base
}

// PushFrame maps a fresh zero-filled call frame and returns its base.
func (m *M) PushFrame(size int64) int64 {
	base := m.stackNext
	if base+size >= HeapBase {
		// The machine's call-depth limit trips long before 16M stack
		// cells; running past the heap base would alias regions.
		panic("mem: stack region exhausted")
	}
	m.stack.mapRange(base-StackBase, size)
	m.stackNext += size + guardGap
	return base
}

// PopFrame unmaps the topmost frame previously pushed at base.
func (m *M) PopFrame(base, size int64) {
	m.stack.unmapRange(base-StackBase, size)
	m.stackNext = base
}

// Alloc maps a heap region of size cells (zero-filled, matching calloc-ish
// determinism so runs are reproducible) and returns its base address.
// Size 0 yields a unique 1-cell region, as malloc(0) may.
func (m *M) Alloc(size int64) (int64, error) {
	if size < 0 {
		return 0, &Fault{Kind: OOMFault, Addr: size}
	}
	if size == 0 {
		size = 1
	}
	base := m.heapNext
	m.heap.mapRange(base-HeapBase, size)
	m.heapNext += size + guardGap
	return base, nil
}

// Free unmaps the heap region at base. Freeing NULL is a no-op; freeing
// anything that is not a live region base is a fault (double free or
// interior pointer).  The heap's mapped bitmap is the region table: the
// guard gaps keep live regions apart, so a region is the run of mapped
// cells that starts at its base.
func (m *M) Free(base int64) error {
	if base == 0 {
		return nil
	}
	r, off, ok := m.locate(base)
	if !ok || r != &m.heap || off > 0 && getBit(r.mapped, off-1) {
		return &Fault{Kind: FreeFault, Addr: base}
	}
	end := off + 1
	for end < int64(len(r.vals)) && getBit(r.mapped, end) {
		end++
	}
	r.unmapRange(off, end-off)
	return nil
}

// Load reads the cell at addr together with its live shadow (nil for a
// concrete cell), in one address decode.
func (m *M) Load(addr int64) (v int64, sym *symbolic.Lin, err error) {
	r, off, ok := m.locate(addr)
	if !ok {
		return 0, nil, &Fault{Kind: LoadFault, Addr: addr}
	}
	if getBit(r.taint, off) {
		sym = r.sym[off]
	}
	return r.vals[off], sym, nil
}

// Store writes v to the cell at addr with its shadow l: an input-
// dependent form taints the cell, nil or a constant leaves it concrete.
func (m *M) Store(addr, v int64, l *symbolic.Lin) error {
	r, off, ok := m.locate(addr)
	if !ok {
		return &Fault{Kind: StoreFault, Addr: addr}
	}
	r.vals[off] = v
	switch {
	case l != nil && !l.IsConst():
		if len(r.sym) < len(r.vals) {
			r.sym = slices.Grow(r.sym, len(r.vals)-len(r.sym))[:len(r.vals)]
		}
		r.sym[off] = l
		setBit(r.taint, off)
	case getBit(r.taint, off):
		r.sym[off] = nil
		clearBit(r.taint, off)
	}
	return nil
}

// LiveRegions returns the number of live heap regions (for leak stats).
func (m *M) LiveRegions() int {
	n := 0
	for i := range int64(len(m.heap.vals)) {
		if getBit(m.heap.mapped, i) && (i == 0 || !getBit(m.heap.mapped, i-1)) {
			n++
		}
	}
	return n
}
