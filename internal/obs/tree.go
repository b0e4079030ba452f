// The explorable execution-tree model: a Sink that reconstructs the
// searched binary tree of branch outcomes from the event stream alone
// (RunEnd paths mark explored prefixes; SolverCall/SolverVerdict pairs
// mark the frontier nodes the search tried to force), and renders it as
// DOT or JSON.  Because it consumes only events, the same tree can be
// rebuilt offline from a recorded -trace file.
package obs

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Node statuses, in increasing precedence (a node only ever upgrades).
const (
	// StatusPending: the solver proved the node's path feasible (sat)
	// but no run has traversed it yet — pending frontier work.
	StatusPending = "pending"
	// StatusInfeasible: the solve came back unsat; under its fixed
	// prefix the node cannot be reached.
	StatusInfeasible = "infeasible"
	// StatusAbandoned: the solve was abandoned on budget exhaustion —
	// the node may be feasible, but the search gave up on it.
	StatusAbandoned = "abandoned-on-budget"
	// StatusDone: at least one run traversed the node.
	StatusDone = "done"
)

// statusRank orders the node statuses by precedence.
func statusRank(status string) int {
	switch status {
	case StatusPending:
		return 1
	case StatusInfeasible:
		return 2
	case StatusAbandoned:
		return 3
	case StatusDone:
		return 4
	}
	return 0
}

// treeNode is one branch-outcome prefix.
type treeNode struct {
	children [2]*treeNode
	status   string
	// runs counts executions traversing this node.
	runs int
	// outcome is the terminal outcome of runs ending exactly here.
	outcome string
	// work is the solver work spent trying to force this node (summed
	// over SolverVerdicts targeting it) — the cost axis of Flame.
	work int64
}

// Tree is a Sink that reconstructs the explored execution tree.  It is
// safe for concurrent use, though its rendering is only meaningful for
// a single search (an audit interleaves many trees; demultiplex by the
// events' Fn field first).
type Tree struct {
	mu        sync.Mutex
	root      *treeNode
	nodes     int
	maxNodes  int
	truncated bool
	// pending remembers each stream's in-flight SolverCall target so
	// that stream's following SolverVerdict can mark it: an audit runs
	// functions, the job server jobs, and the frontier engine workers
	// side by side, and their solves interleave on one event stream.
	pending []pendingSolve
}

// pendingSolve is one stream's in-flight SolverCall target.  A stream
// is one engine's events, named by the fields the engine stamps: the
// job, the function under test and the frontier worker.
type pendingSolve struct {
	job, fn string
	worker  int
	path    string
}

// maxPendingSolves bounds the in-flight target table.  Each engine has
// at most one solve in flight, so a table this full holds targets
// whose verdicts never came (an observer disabled mid-solve); it is
// forgotten whole rather than grown.
const maxPendingSolves = 64

// DefaultMaxTreeNodes bounds tree memory; beyond it new paths are
// dropped and the dump is marked truncated.
const DefaultMaxTreeNodes = 1 << 20

// NewTree returns an empty tree builder.  maxNodes <= 0 selects
// DefaultMaxTreeNodes.
func NewTree(maxNodes int) *Tree {
	if maxNodes <= 0 {
		maxNodes = DefaultMaxTreeNodes
	}
	return &Tree{root: &treeNode{}, nodes: 1, maxNodes: maxNodes}
}

// Event implements Sink.
func (t *Tree) Event(ev Event) { t.Fold(&ev) }

// Fold places one event in the tree.  Only RunEnd, SolverCall and
// SolverVerdict shape it; every other kind returns without locking.
func (t *Tree) Fold(ev *Event) {
	switch ev.Kind {
	case RunEnd, SolverCall, SolverVerdict:
	default:
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	switch ev.Kind {
	case RunEnd:
		if ev.Outcome == OutcomeInternalError {
			return // no recorded path to place the run on
		}
		n := t.walk(ev.Path, true)
		if n == nil {
			return
		}
		n.outcome = ev.Outcome
	case SolverCall:
		if i := t.stream(ev); i >= 0 {
			t.pending[i].path = ev.Path
			return
		}
		if len(t.pending) == maxPendingSolves {
			t.pending = t.pending[:0]
		}
		t.pending = append(t.pending, pendingSolve{job: ev.Job, fn: ev.Fn, worker: ev.Worker, path: ev.Path})
	case SolverVerdict:
		i := t.stream(ev)
		if i < 0 {
			return
		}
		path := t.pending[i].path
		last := len(t.pending) - 1
		t.pending[i] = t.pending[last]
		t.pending = t.pending[:last]
		status := StatusPending
		switch ev.Verdict {
		case "unsat":
			status = StatusInfeasible
		case "budget-exhausted":
			status = StatusAbandoned
		}
		if n := t.node(path); n != nil {
			t.upgrade(n, status)
			n.work += ev.Work
		}
	}
}

// stream returns the index in pending of ev's stream, or -1.
func (t *Tree) stream(ev *Event) int {
	for i := range t.pending {
		p := &t.pending[i]
		if p.worker == ev.Worker && p.fn == ev.Fn && p.job == ev.Job {
			return i
		}
	}
	return -1
}

// walk follows (creating, when create is set) the path from the root,
// marking every node on it done, and returns the final node.
func (t *Tree) walk(path string, create bool) *treeNode {
	n := t.root
	t.upgrade(n, StatusDone)
	n.runs++
	for i := 0; i < len(path); i++ {
		bit := 0
		if path[i] == '1' {
			bit = 1
		}
		if n.children[bit] == nil {
			if !create || t.nodes >= t.maxNodes {
				t.truncated = true
				return nil
			}
			n.children[bit] = &treeNode{}
			t.nodes++
		}
		n = n.children[bit]
		t.upgrade(n, StatusDone)
		n.runs++
	}
	return n
}

// node returns (creating if room) the node at path without marking the
// prefix as traversed.
func (t *Tree) node(path string) *treeNode {
	n := t.root
	for i := 0; i < len(path); i++ {
		bit := 0
		if path[i] == '1' {
			bit = 1
		}
		if n.children[bit] == nil {
			if t.nodes >= t.maxNodes {
				t.truncated = true
				return nil
			}
			n.children[bit] = &treeNode{}
			t.nodes++
		}
		n = n.children[bit]
	}
	return n
}

func (t *Tree) upgrade(n *treeNode, status string) {
	if statusRank(status) > statusRank(n.status) {
		n.status = status
	}
}

// Nodes returns the number of materialized tree nodes.
func (t *Tree) Nodes() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.nodes
}

// jsonNode is the JSON dump shape: a flat list keyed by path, which
// stays readable for wide trees and trivially diffable.
type jsonNode struct {
	Path    string `json:"path"`
	Status  string `json:"status"`
	Runs    int    `json:"runs,omitempty"`
	Outcome string `json:"outcome,omitempty"`
}

type jsonTree struct {
	Nodes     int        `json:"nodes"`
	Truncated bool       `json:"truncated,omitempty"`
	Tree      []jsonNode `json:"tree"`
}

// flatten lists every node with its path, depth-first, "0" before "1".
func (t *Tree) flatten() []jsonNode {
	var out []jsonNode
	var rec func(n *treeNode, path string)
	rec = func(n *treeNode, path string) {
		out = append(out, jsonNode{Path: path, Status: n.status, Runs: n.runs, Outcome: n.outcome})
		for bit := 0; bit < 2; bit++ {
			if c := n.children[bit]; c != nil {
				rec(c, path+string('0'+byte(bit)))
			}
		}
	}
	rec(t.root, "")
	return out
}

// JSON renders the tree dump.
func (t *Tree) JSON() ([]byte, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	nodes := t.flatten()
	sort.SliceStable(nodes, func(i, j int) bool {
		if len(nodes[i].Path) != len(nodes[j].Path) {
			return len(nodes[i].Path) < len(nodes[j].Path)
		}
		return nodes[i].Path < nodes[j].Path
	})
	return json.MarshalIndent(jsonTree{Nodes: t.nodes, Truncated: t.truncated, Tree: nodes}, "", "  ")
}

// flameMaxLines caps the Flame rendering so a pathological tree can't
// flood an HTTP response; deeper frames past the cap are elided.
const flameMaxLines = 200

// cumWork is own-plus-descendant solver work — the flamegraph width.
func cumWork(n *treeNode) int64 {
	w := n.work
	for bit := 0; bit < 2; bit++ {
		if c := n.children[bit]; c != nil {
			w += cumWork(c)
		}
	}
	return w
}

// Flame renders the tree as a cost-weighted text flamegraph: one line
// per branch prefix whose subtree consumed solver work, indented by
// depth, with a bar proportional to the subtree's share of total work.
// Zero-work subtrees are pruned — the point is to show where the
// solver budget went, and for DART that is typically a handful of hot
// prefixes among thousands of free flips.
func (t *Tree) Flame() []byte {
	t.mu.Lock()
	defer t.mu.Unlock()
	var b strings.Builder
	total := cumWork(t.root)
	fmt.Fprintf(&b, "solver work flamegraph: %d work total, %d nodes", total, t.nodes)
	if t.truncated {
		b.WriteString(" (truncated)")
	}
	b.WriteString("\n")
	if total == 0 {
		b.WriteString("(no solver work recorded)\n")
		return []byte(b.String())
	}
	const barWidth = 40
	lines := 0
	var rec func(n *treeNode, path string)
	rec = func(n *treeNode, path string) {
		cum := cumWork(n)
		if cum == 0 {
			return
		}
		if lines >= flameMaxLines {
			return
		}
		lines++
		share := float64(cum) / float64(total)
		bar := int(share*barWidth + 0.5)
		if bar == 0 {
			bar = 1
		}
		label := path
		if label == "" {
			label = "(root)"
		}
		fmt.Fprintf(&b, "%s%-*s %8d %5.1f%% %s\n",
			strings.Repeat(" ", len(path)), 24-len(path), label,
			cum, 100*share, strings.Repeat("#", bar))
		for bit := 0; bit < 2; bit++ {
			if c := n.children[bit]; c != nil {
				rec(c, path+string('0'+byte(bit)))
			}
		}
	}
	rec(t.root, "")
	if lines >= flameMaxLines {
		fmt.Fprintf(&b, "... (capped at %d lines)\n", flameMaxLines)
	}
	return []byte(b.String())
}

// dotColor maps a node status to a Graphviz fill color.
func dotColor(status string) string {
	switch status {
	case StatusDone:
		return "palegreen"
	case StatusPending:
		return "khaki"
	case StatusAbandoned:
		return "lightsalmon"
	case StatusInfeasible:
		return "lightgray"
	}
	return "white"
}

// DOT renders the tree as a Graphviz digraph: one node per branch
// prefix, colored by status, edge labels 0/1 for the branch outcome.
func (t *Tree) DOT() []byte {
	t.mu.Lock()
	defer t.mu.Unlock()
	var b strings.Builder
	b.WriteString("digraph dart {\n  node [shape=circle, style=filled, fontsize=10];\n")
	if t.truncated {
		b.WriteString("  label=\"(truncated)\";\n")
	}
	var rec func(n *treeNode, path string)
	rec = func(n *treeNode, path string) {
		name := "root"
		if path != "" {
			name = "n" + path
		}
		label := fmt.Sprintf("%d", n.runs)
		if n.outcome != "" && n.outcome != "halt" {
			label += "\\n" + n.outcome
		}
		fmt.Fprintf(&b, "  %s [label=\"%s\", fillcolor=%s, tooltip=\"path=%s status=%s\"];\n",
			name, label, dotColor(n.status), path, n.status)
		for bit := 0; bit < 2; bit++ {
			c := n.children[bit]
			if c == nil {
				continue
			}
			child := "n" + path + string('0'+byte(bit))
			fmt.Fprintf(&b, "  %s -> %s [label=\"%d\"];\n", name, child, bit)
			rec(c, path+string('0'+byte(bit)))
		}
	}
	rec(t.root, "")
	b.WriteString("}\n")
	return []byte(b.String())
}
