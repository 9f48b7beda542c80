// Package workflow defines streaming workflows: directed acyclic graphs
// of stored procedures connected by streams (§2.1). A workflow
// definition is purely declarative; the partition engine compiles it
// into PE triggers and scheduling constraints.
package workflow

import (
	"fmt"
	"sort"
)

// Node is one stored procedure in a workflow.
type Node struct {
	// SP is the stored procedure name.
	SP string
	// Input is the stream table the SP consumes. Every streaming SP
	// has exactly one input stream in this implementation (the
	// paper's formalism allows several; one suffices for every
	// benchmark in §4).
	Input string
	// Outputs are the stream tables the SP may append to; each must
	// be the Input of a downstream node (or an engine-level sink).
	Outputs []string
}

// Workflow is a DAG of stored procedures. Edges are implied: node A
// precedes node B when one of A's outputs is B's input.
type Workflow struct {
	Name  string
	nodes []Node

	byInput map[string][]int // stream name → consumer node indexes
	order   []int            // topological order (node indexes)
}

// New validates the node set and computes a topological order. It
// rejects cyclic graphs, duplicate SPs, and streams with no producer
// path from a border input.
func New(name string, nodes []Node) (*Workflow, error) {
	w := &Workflow{Name: name, nodes: append([]Node(nil), nodes...), byInput: make(map[string][]int)}
	seen := make(map[string]bool)
	for i, n := range w.nodes {
		if n.SP == "" {
			return nil, fmt.Errorf("workflow %s: node %d has empty SP name", name, i)
		}
		if seen[n.SP] {
			return nil, fmt.Errorf("workflow %s: duplicate SP %s", name, n.SP)
		}
		seen[n.SP] = true
		if n.Input == "" {
			return nil, fmt.Errorf("workflow %s: SP %s has no input stream", name, n.SP)
		}
		w.byInput[n.Input] = append(w.byInput[n.Input], i)
	}
	order, err := w.topoSort()
	if err != nil {
		return nil, err
	}
	w.order = order
	return w, nil
}

// edges returns adjacency: for node i, the indexes of nodes consuming
// its outputs.
func (w *Workflow) edges(i int) []int {
	var out []int
	for _, s := range w.nodes[i].Outputs {
		out = append(out, w.byInput[s]...)
	}
	return out
}

// topoSort Kahn's algorithm; ties broken by node order for
// determinism.
func (w *Workflow) topoSort() ([]int, error) {
	indeg := make([]int, len(w.nodes))
	for i := range w.nodes {
		for _, j := range w.edges(i) {
			indeg[j]++
		}
	}
	var ready []int
	for i, d := range indeg {
		if d == 0 {
			ready = append(ready, i)
		}
	}
	var order []int
	for len(ready) > 0 {
		sort.Ints(ready)
		i := ready[0]
		ready = ready[1:]
		order = append(order, i)
		for _, j := range w.edges(i) {
			indeg[j]--
			if indeg[j] == 0 {
				ready = append(ready, j)
			}
		}
	}
	if len(order) != len(w.nodes) {
		return nil, fmt.Errorf("workflow %s: cycle detected", w.Name)
	}
	return order, nil
}

// Nodes returns the nodes in their declared order.
func (w *Workflow) Nodes() []Node { return append([]Node(nil), w.nodes...) }

// TopoOrder returns the SP names in a valid topological order.
func (w *Workflow) TopoOrder() []string {
	out := make([]string, len(w.order))
	for i, idx := range w.order {
		out[i] = w.nodes[idx].SP
	}
	return out
}

// Border returns the border SPs: those whose input stream is produced
// by no node in the workflow, i.e. fed from outside (§2.1).
func (w *Workflow) Border() []string {
	produced := make(map[string]bool)
	for _, n := range w.nodes {
		for _, s := range n.Outputs {
			produced[s] = true
		}
	}
	var border []string
	for _, idx := range w.order {
		n := w.nodes[idx]
		if !produced[n.Input] {
			border = append(border, n.SP)
		}
	}
	return border
}

// IsBorder reports whether the named SP is a border SP.
func (w *Workflow) IsBorder(sp string) bool {
	for _, b := range w.Border() {
		if b == sp {
			return true
		}
	}
	return false
}

// Consumers returns the SPs that consume the given stream, in node
// order. The partition engine turns each (stream, consumer) pair into a
// PE trigger.
func (w *Workflow) Consumers(streamName string) []string {
	idxs := w.byInput[streamName]
	out := make([]string, len(idxs))
	for i, idx := range idxs {
		out[i] = w.nodes[idx].SP
	}
	return out
}

// Node returns the named node.
func (w *Workflow) Node(sp string) (Node, bool) {
	for _, n := range w.nodes {
		if n.SP == sp {
			return n, true
		}
	}
	return Node{}, false
}

// Precedes reports whether a must run before b for a given batch (a
// path exists from a to b).
func (w *Workflow) Precedes(a, b string) bool {
	var ai = -1
	for i, n := range w.nodes {
		if n.SP == a {
			ai = i
		}
	}
	if ai < 0 {
		return false
	}
	// BFS from a.
	queue := []int{ai}
	visited := make(map[int]bool)
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		if visited[i] {
			continue
		}
		visited[i] = true
		for _, j := range w.edges(i) {
			if w.nodes[j].SP == b {
				return true
			}
			queue = append(queue, j)
		}
	}
	return false
}
