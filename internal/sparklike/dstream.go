package sparklike

import "sstore/internal/types"

// UpdateStateByKey is the standard Spark Streaming stateful operator:
// it merges the batch into keyed state by rebuilding the state RDD.
// keyCol identifies the key column in both state and batch rows;
// update folds a batch row into (possibly nil) existing state.
//
// Note the cost profile: the output state is a full copy of the old
// state plus changes — immutability forces it — so per-batch cost is
// O(|state|) even for one-row updates.
func UpdateStateByKey(ctx *Context, state, batch *RDD, keyCol int, update func(existing types.Row, incoming types.Row) types.Row) *RDD {
	// Build the change set from the batch.
	changed := make(map[uint64][]types.Row)
	for _, row := range batch.Collect() {
		h := row[keyCol].Hash()
		changed[h] = append(changed[h], row)
	}
	// Rebuild state: copy-with-merge (the full copy is the point).
	var next []types.Row
	for _, row := range state.Collect() {
		h := row[keyCol].Hash()
		rest := changed[h][:0]
		cur := row
		for _, inc := range changed[h] {
			if inc[keyCol].Equal(row[keyCol]) {
				cur = update(cur, inc)
			} else {
				rest = append(rest, inc)
			}
		}
		if len(rest) == 0 {
			delete(changed, h)
		} else {
			changed[h] = rest
		}
		next = append(next, cur)
	}
	// Remaining changes are new keys: fold all of a key's incoming
	// rows into one state row.
	for _, rows := range changed {
		for len(rows) > 0 {
			key := rows[0][keyCol]
			cur := update(nil, rows[0])
			rest := rows[:0]
			for _, inc := range rows[1:] {
				if inc[keyCol].Equal(key) {
					cur = update(cur, inc)
				} else {
					rest = append(rest, inc)
				}
			}
			next = append(next, cur)
			rows = rest
		}
	}
	return ctx.Parallelize(next)
}
