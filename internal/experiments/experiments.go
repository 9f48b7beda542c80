// Package experiments regenerates every table and figure of the
// paper's evaluation (§4). Each FigN function builds the systems under
// test from this repository's engines, runs the paper's workload
// shape, and returns the result rows; cmd/sstore-bench prints them and
// experiments_test.go asserts their shapes. Served throughput, latency,
// reads, spill and allocations are measured by the bench/ harness, not
// here.
//
// Absolute numbers will not match the paper (different hardware,
// language, and a simulated network — see DESIGN.md §3); the shapes
// are what these experiments reproduce: who wins, by roughly what
// factor, and where the crossovers fall.
package experiments

import (
	"fmt"

	"sstore/internal/netsim"
	"sstore/internal/pe"
	"sstore/internal/types"
	"sstore/internal/workflow"
)

// Options tunes experiment scale.
type Options struct {
	// Quick shrinks sweeps and windows for tests and fast passes.
	Quick bool
	// Dir is a scratch directory for logs and snapshots (required by
	// Fig9a/Fig9b).
	Dir string
}

func (o Options) pick(quick, full []int) []int {
	if o.Quick {
		return quick
	}
	return full
}

func (o Options) n(quick, full int) int {
	if o.Quick {
		return quick
	}
	return full
}

// chainEngine builds a micro-benchmark engine with an N-SP chain
// workflow (the Figure 6 shape): SP_i consumes s_i and inserts the
// batch into s_(i+1); the last SP inserts into a sink table. With
// deploy=false the SPs are registered but no workflow is wired — the
// H-Store configuration, where the client chains the calls itself.
func chainEngine(n int, deploy bool, opts pe.Options) (*pe.Engine, error) {
	eng, err := pe.NewEngine(opts)
	if err != nil {
		return nil, err
	}
	if err := eng.ExecDDL("CREATE TABLE chain_sink (v BIGINT)"); err != nil {
		eng.Close()
		return nil, err
	}
	var nodes []workflow.Node
	for i := 1; i <= n; i++ {
		if err := eng.ExecDDL(fmt.Sprintf("CREATE STREAM cs%d (v BIGINT)", i)); err != nil {
			eng.Close()
			return nil, err
		}
		sp := fmt.Sprintf("ChainSP%d", i)
		in := fmt.Sprintf("cs%d", i)
		out := fmt.Sprintf("cs%d", i+1)
		last := i == n
		node := workflow.Node{SP: sp, Input: in}
		if !last {
			node.Outputs = []string{out}
		}
		nodes = append(nodes, node)
		stmt := "INSERT INTO " + out + " SELECT v FROM " + in
		if last {
			stmt = "INSERT INTO chain_sink SELECT v FROM " + in
		}
		err := eng.RegisterProc(&pe.StoredProc{Name: sp, Func: func(ctx *pe.ProcCtx) error {
			_, err := ctx.Query(stmt)
			return err
		}})
		if err != nil {
			eng.Close()
			return nil, err
		}
	}
	if deploy {
		w, err := workflow.New("chain", nodes)
		if err != nil {
			eng.Close()
			return nil, err
		}
		if err := eng.DeployWorkflow(w); err != nil {
			eng.Close()
			return nil, err
		}
	} else {
		// H-Store mode: the "streams" are ordinary consumable tables;
		// each SP must clean its input itself (no automatic GC), and
		// the client invokes SPs in order. Re-register cleanup SPs.
		for i := 1; i <= n; i++ {
			sp := fmt.Sprintf("HChainSP%d", i)
			in := fmt.Sprintf("cs%d", i)
			out := fmt.Sprintf("cs%d", i+1)
			last := i == n
			stmt := "INSERT INTO " + out + " SELECT v FROM " + in
			if last {
				stmt = "INSERT INTO chain_sink SELECT v FROM " + in
			}
			del := "DELETE FROM " + in
			err := eng.RegisterProc(&pe.StoredProc{Name: sp, Func: func(ctx *pe.ProcCtx) error {
				if _, err := ctx.Query(stmt); err != nil {
					return err
				}
				_, err := ctx.Query(del)
				return err
			}})
			if err != nil {
				eng.Close()
				return nil, err
			}
		}
		// The first table still needs data pushed in; an insert SP
		// stands in for the border step.
		err := eng.RegisterProc(&pe.StoredProc{Name: "HChainFeed", Func: func(ctx *pe.ProcCtx) error {
			_, err := ctx.Query("INSERT INTO cs1 VALUES (?)", ctx.Params()[0])
			return err
		}})
		if err != nil {
			eng.Close()
			return nil, err
		}
	}
	return eng, nil
}

// microOpts is the engine configuration for the micro-benchmarks:
// simulated client RTT and PE→EE boundary on, logging off (§4:
// "logging was disabled unless otherwise specified").
func microOpts() pe.Options {
	return pe.Options{
		ClientRTT:  netsim.DefaultClientRTT,
		EEDispatch: netsim.DefaultEEDispatch,
	}
}

// intRow wraps one integer as a stream tuple.
func intRow(v int64) types.Row { return types.Row{types.NewInt(v)} }
