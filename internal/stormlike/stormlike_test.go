package stormlike

import (
	"fmt"
	"testing"

	"sstore/internal/types"
)

func row(vs ...int64) types.Row {
	r := make(types.Row, len(vs))
	for i, v := range vs {
		r[i] = types.NewInt(v)
	}
	return r
}

func TestKVStoreTxidIdempotence(t *testing.T) {
	s := NewKVStore(0)
	if !s.PutIfNewTxid(1, "k", row(10)) {
		t.Fatal("first write rejected")
	}
	if s.PutIfNewTxid(1, "k", row(20)) {
		t.Error("same-txid rewrite should be skipped (idempotent replay)")
	}
	v, txid, ok := s.GetWithTxid("k")
	if !ok || v[0].Int() != 10 || txid != 1 {
		t.Fatalf("get = %v, %d, %v", v, txid, ok)
	}
	if !s.PutIfNewTxid(2, "k", row(20)) {
		t.Error("new txid write rejected")
	}
	v, _ = s.Get("k")
	if v[0].Int() != 20 {
		t.Errorf("v = %v", v)
	}
	if _, ok := s.Get("missing"); ok {
		t.Error("missing key reported present")
	}
	if s.Len() != 1 {
		t.Errorf("len = %d", s.Len())
	}
	if s.Ops() == 0 {
		t.Error("ops not counted")
	}
}

func TestTridentExactlyOnce(t *testing.T) {
	state := NewKVStore(0)
	failNext := 0
	tr := NewTrident(state, func(txid int64, rows []types.Row, s *KVStore) error {
		for _, r := range rows {
			key := fmt.Sprint(r[0].Int())
			cur, _, ok := s.GetWithTxid(key)
			n := int64(0)
			if ok {
				n = cur[0].Int()
			}
			s.PutIfNewTxid(txid, key, row(n+1))
		}
		if failNext > 0 {
			failNext--
			return fmt.Errorf("injected failure")
		}
		return nil
	})
	// Batch 1 fails twice mid-flight, then succeeds: counts must not
	// double-apply thanks to txid-tagged writes.
	failNext = 2
	if err := tr.ProcessBatch([]types.Row{row(1), row(2)}); err != nil {
		t.Fatal(err)
	}
	if err := tr.ProcessBatch([]types.Row{row(1)}); err != nil {
		t.Fatal(err)
	}
	v, _ := state.Get("1")
	if v[0].Int() != 2 {
		t.Errorf("key 1 = %v, want 2 (exactly-once)", v[0])
	}
	v, _ = state.Get("2")
	if v[0].Int() != 1 {
		t.Errorf("key 2 = %v, want 1", v[0])
	}
	if tr.Committed() != 2 {
		t.Errorf("committed = %d", tr.Committed())
	}
	if tr.Attempts() != 4 {
		t.Errorf("attempts = %d, want 4 (2 failures + 2 commits)", tr.Attempts())
	}
}
