package workflow

import (
	"fmt"
	"testing"
)

func chainNodes(n int) []Node {
	nodes := make([]Node, n)
	for i := 0; i < n; i++ {
		node := Node{SP: fmt.Sprintf("SP%d", i+1), Input: fmt.Sprintf("s%d", i+1)}
		if i < n-1 {
			node.Outputs = []string{fmt.Sprintf("s%d", i+2)}
		}
		nodes[i] = node
	}
	return nodes
}

func TestChainTopology(t *testing.T) {
	w, err := New("chain", chainNodes(4))
	if err != nil {
		t.Fatal(err)
	}
	order := w.TopoOrder()
	want := []string{"SP1", "SP2", "SP3", "SP4"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v", order)
		}
	}
	if b := w.Border(); len(b) != 1 || b[0] != "SP1" {
		t.Errorf("border = %v", b)
	}
	if !w.IsBorder("SP1") || w.IsBorder("SP2") {
		t.Error("IsBorder wrong")
	}
	if got := w.Consumers("s2"); len(got) != 1 || got[0] != "SP2" {
		t.Errorf("consumers(s2) = %v", got)
	}
	if !w.Precedes("SP1", "SP4") {
		t.Error("SP1 should precede SP4")
	}
	if w.Precedes("SP4", "SP1") {
		t.Error("SP4 should not precede SP1")
	}
}

func TestDiamondTopology(t *testing.T) {
	// SP1 fans out to SP2 and SP3, which join at SP4 (via separate
	// input streams; SP4 consumes s4 fed by both).
	w, err := New("diamond", []Node{
		{SP: "SP1", Input: "in", Outputs: []string{"s2", "s3"}},
		{SP: "SP2", Input: "s2", Outputs: []string{"s4"}},
		{SP: "SP3", Input: "s3", Outputs: []string{"s4"}},
		{SP: "SP4", Input: "s4"},
	})
	if err != nil {
		t.Fatal(err)
	}
	order := w.TopoOrder()
	pos := make(map[string]int)
	for i, sp := range order {
		pos[sp] = i
	}
	if pos["SP1"] != 0 || pos["SP4"] != 3 {
		t.Errorf("order = %v", order)
	}
	if got := w.Consumers("s4"); len(got) != 1 || got[0] != "SP4" {
		t.Errorf("consumers(s4) = %v", got)
	}
	if len(w.Border()) != 1 {
		t.Errorf("border = %v", w.Border())
	}
}

func TestFanOutConsumers(t *testing.T) {
	w, err := New("fan", []Node{
		{SP: "SP1", Input: "in", Outputs: []string{"mid"}},
		{SP: "SP2", Input: "mid"},
		{SP: "SP3", Input: "mid"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Consumers("mid"); len(got) != 2 {
		t.Errorf("consumers = %v", got)
	}
}

func TestCycleRejected(t *testing.T) {
	_, err := New("cycle", []Node{
		{SP: "A", Input: "s1", Outputs: []string{"s2"}},
		{SP: "B", Input: "s2", Outputs: []string{"s1"}},
	})
	if err == nil {
		t.Fatal("cycle should be rejected")
	}
}

func TestValidationErrors(t *testing.T) {
	cases := []struct {
		name  string
		nodes []Node
	}{
		{"empty sp", []Node{{SP: "", Input: "s"}}},
		{"no input", []Node{{SP: "A", Input: ""}}},
		{"duplicate sp", []Node{{SP: "A", Input: "s1"}, {SP: "A", Input: "s2"}}},
	}
	for _, c := range cases {
		if _, err := New(c.name, c.nodes); err == nil {
			t.Errorf("%s should be rejected", c.name)
		}
	}
}

func TestMultipleTopoOrdersAccepted(t *testing.T) {
	// Two independent chains in one workflow: any interleaving is a
	// valid topological order; ours must at least respect each chain.
	w, err := New("two", []Node{
		{SP: "A1", Input: "a_in", Outputs: []string{"a_mid"}},
		{SP: "A2", Input: "a_mid"},
		{SP: "B1", Input: "b_in", Outputs: []string{"b_mid"}},
		{SP: "B2", Input: "b_mid"},
	})
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[string]int)
	for i, sp := range w.TopoOrder() {
		pos[sp] = i
	}
	if pos["A1"] > pos["A2"] || pos["B1"] > pos["B2"] {
		t.Errorf("order violates chains: %v", w.TopoOrder())
	}
	if b := w.Border(); len(b) != 2 {
		t.Errorf("border = %v", b)
	}
}
