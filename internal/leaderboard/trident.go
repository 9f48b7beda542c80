package leaderboard

import (
	"fmt"
	"time"

	"sstore/internal/stormlike"
	"sstore/internal/types"
)

// TridentLeaderboard is the Storm+Trident deployment (§4.6.2): two
// logical bolts — validate and maintain-leaderboard — processed as
// Trident transactional batches. All state lives in an external
// key/value store (the Memcached stand-in), so validation is an
// indexed lookup (unlike Spark) but *every* state touch pays a network
// hop; and with no built-in windowing, the sliding trending window is
// managed by hand as a ring buffer in the store (§4.6.3: "the lack of
// built-in windowing functionality curbs its overall performance").
type TridentLeaderboard struct {
	cfg     Config
	trident *stormlike.Trident
	state   *stormlike.KVStore
	// Validation toggles the phone check, mirroring Figure 10's two
	// variants.
	Validation bool
	tops       []Standing
}

// Key layout in the external store.
func phoneKey(p int64) string   { return fmt.Sprintf("phone:%d", p) }
func totalKey(c int64) string   { return fmt.Sprintf("total:%d", c) }
func winSlotKey(i int64) string { return fmt.Sprintf("win:%d", i) }

const winHeadKey = "win:head"

// NewTridentLeaderboard builds the deployment with the given state-hop
// latency (use stormlike.DefaultKVHop for the realistic setting, 0 for
// tests).
func NewTridentLeaderboard(cfg Config, hop time.Duration, validation bool) *TridentLeaderboard {
	cfg = cfg.withDefaults()
	t := &TridentLeaderboard{cfg: cfg, Validation: validation}
	t.state = stormlike.NewKVStore(hop)
	t.trident = stormlike.NewTrident(t.state, t.processBatch)
	return t
}

// ProcessBatch pushes one batch of votes (phone, contestant, ts)
// through the pipeline with exactly-once semantics.
func (t *TridentLeaderboard) ProcessBatch(rows []types.Row) error {
	return t.trident.ProcessBatch(rows)
}

func (t *TridentLeaderboard) processBatch(txid int64, rows []types.Row, s *stormlike.KVStore) error {
	// Validate bolt: one indexed store lookup per vote. Writes are
	// txid-tagged; a key written by *this* txid belongs to an earlier
	// attempt of the same batch and still counts as valid, which is
	// what makes replay exactly-once.
	var valid []types.Row
	seenLocal := make(map[int64]bool)
	for _, vote := range rows {
		phone, cand := vote[0].Int(), vote[1].Int()
		if cand < 1 || cand > int64(t.cfg.Contestants) {
			continue
		}
		if t.Validation {
			if seenLocal[phone] {
				continue // duplicate within this batch
			}
			if _, prevTxid, ok := s.GetWithTxid(phoneKey(phone)); ok && prevTxid != txid {
				continue // voted in an earlier batch
			}
			seenLocal[phone] = true
			s.PutIfNewTxid(txid, phoneKey(phone), types.Row{types.NewInt(cand)})
		}
		valid = append(valid, vote)
	}
	// Leaderboard bolt: aggregate the batch, then apply one
	// idempotent read-modify-write per touched key. (Aggregating
	// first is what real Trident persistentAggregate does; it is also
	// required for txid idempotence.)
	incr := make(map[int64]int64)
	for _, vote := range valid {
		incr[vote[1].Int()]++
	}
	for cand, n := range incr {
		cur, _, ok := s.GetWithTxid(totalKey(cand))
		base := int64(0)
		if ok {
			base = cur[0].Int()
		}
		s.PutIfNewTxid(txid, totalKey(cand), types.Row{types.NewInt(base + n)})
	}
	// Manual sliding window: ring buffer of the last TrendingWindow
	// contestants with a head pointer, all in the external store.
	head := int64(0)
	if h, headTxid, ok := s.GetWithTxid(winHeadKey); ok {
		head = h[0].Int()
		if headTxid == txid {
			// Replay of this batch: the head was already advanced;
			// rewind to the batch's starting position.
			head -= int64(len(valid))
		}
	}
	slots := make(map[int64]int64)
	for i, vote := range valid {
		slots[(head+int64(i))%t.cfg.TrendingWindow] = vote[1].Int()
	}
	for slot, cand := range slots {
		s.PutIfNewTxid(txid, winSlotKey(slot), types.Row{types.NewInt(cand)})
	}
	s.PutIfNewTxid(txid, winHeadKey, types.Row{types.NewInt(head + int64(len(valid)))})
	// Recompute the trending board from the ring buffer (one hop per
	// slot — the price of external, window-less state).
	counts := make(map[int64]int64)
	for i := int64(0); i < t.cfg.TrendingWindow; i++ {
		if v, ok := s.Get(winSlotKey(i)); ok {
			counts[v[0].Int()]++
		}
	}
	rowsOut := make([]types.Row, 0, len(counts))
	for c, n := range counts {
		rowsOut = append(rowsOut, types.Row{types.NewInt(c), types.NewInt(n)})
	}
	t.tops = topK(rowsOut, t.cfg.TopK)
	return nil
}
