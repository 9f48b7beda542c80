package analysis

import "testing"

// TestSelfLint runs the full invariant suite over the repository
// itself, so `go test ./...` fails on any violation even where CI's
// explicit sstore-lint step doesn't run. Testdata fixture trees are
// outside `go list ./...` and stay out of this pass.
func TestSelfLint(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and typechecks the whole module")
	}
	prog, err := Load("../..", "./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	diags := Run(prog, Suite)
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
