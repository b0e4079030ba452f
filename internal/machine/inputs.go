package machine

import (
	"strconv"
	"sync"
	"sync/atomic"

	"dart/internal/symbolic"
	"dart/internal/types"
)

// Input is one input location of a search (an entry of the input vector
// IM, Sec. 2.3): a node of the search's InputTrie, reached from a root —
// "d<depth>.<param>", "g:<name>" or "ext:<fn>#<n>" — by dereference,
// field and element steps.
type Input struct {
	// Key is the rendered path ("d0.p.*.next", "g:a[1][0]"), the name an
	// input carries at every boundary: bug and run records, solver
	// models, explanations and replay.
	Key string
	// Depth counts the dereference steps from the root.
	Depth int
	// Var is a (scalar or pointer) leaf's symbolic variable, numbered in
	// the order the search reaches leaves; -1 for structs and arrays.
	Var  symbolic.Var
	Type types.Type
	// lin is a leaf's shadow 1·Var, made on first symbolic use.
	lin atomic.Pointer[symbolic.Lin]
	// kids are the interned steps (a pointer's is deref).
	kids  []atomic.Pointer[Input]
	deref [1]atomic.Pointer[Input]
}

// InputTrie interns every input path of one search once, shared by all
// of its machines, so that a Var names the same input in every worker
// and a run walks its inputs without building a key.
type InputTrie struct {
	mu sync.Mutex
	// nodes indexes the roots, and the leaves up to indexed (indexed on
	// lookup, off the run path).
	nodes   map[string]*Input
	indexed int
	// leaves is the published Var table: an append writes only past every
	// published length, so a loaded table is read without a lock.
	leaves atomic.Pointer[[]*Input]
}

// NewInputTrie returns an empty trie.
func NewInputTrie() *InputTrie {
	t := &InputTrie{nodes: map[string]*Input{}}
	t.leaves.Store(&[]*Input{})
	return t
}

// Root returns the root input named key, of type ty.
func (t *InputTrie) Root(key string, ty types.Type) *Input {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.nodes[key] == nil {
		t.nodes[key] = t.add(key, 0, ty)
	}
	return t.nodes[key]
}

// child returns step i of in.  A step taken before costs one atomic load
// and no lock.
func (t *InputTrie) child(in *Input, i int) *Input {
	if c := in.kids[i].Load(); c != nil {
		return c
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if c := in.kids[i].Load(); c != nil {
		return c
	}
	var c *Input
	switch ty := in.Type.(type) {
	case *types.Pointer:
		c = t.add(in.Key+".*", in.Depth+1, ty.Elem)
	case *types.Struct:
		c = t.add(in.Key+"."+ty.Fields[i].Name, in.Depth, ty.Fields[i].Type)
	case *types.Array:
		c = t.add(in.Key+"["+strconv.Itoa(i)+"]", in.Depth, ty.Elem)
	}
	in.kids[i].Store(c)
	return c
}

// add makes a node, numbering a leaf; the caller holds mu.
func (t *InputTrie) add(key string, depth int, ty types.Type) *Input {
	in := &Input{Key: key, Depth: depth, Var: -1, Type: ty}
	switch ty := ty.(type) {
	case *types.Struct:
		in.kids = make([]atomic.Pointer[Input], len(ty.Fields))
	case *types.Array:
		in.kids = make([]atomic.Pointer[Input], ty.Len)
	case *types.Basic, *types.Pointer:
		if _, ok := ty.(*types.Pointer); ok {
			in.kids = in.deref[:]
		}
		leaves := append(t.Leaves(), in)
		in.Var = symbolic.Var(len(leaves) - 1)
		t.leaves.Store(&leaves)
	}
	return in
}

// Leaves returns the Var table: leaf v is Leaves()[v].
func (t *InputTrie) Leaves() []*Input { return *t.leaves.Load() }

// Lookup returns the leaf named key.
func (t *InputTrie) Lookup(key string) (*Input, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	leaves := t.Leaves()
	for _, in := range leaves[t.indexed:] {
		t.nodes[in.Key] = in
	}
	t.indexed = len(leaves)
	in := t.nodes[key]
	return in, in != nil && in.Var >= 0
}

// isPointerVar reports whether v numbers a pointer (the leaf with a step).
func (t *InputTrie) isPointerVar(v symbolic.Var) bool {
	leaves := t.Leaves()
	return v >= 0 && int(v) < len(leaves) && leaves[v].kids != nil
}
