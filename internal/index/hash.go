package index

// HashIndex is an equality index built on Go's map with chained buckets
// for hash collisions. Lookups are O(1); it does not support range
// scans (use BTree for those).
type HashIndex struct {
	name    string
	columns []int
	unique  bool
	buckets map[uint64][]hashEntry
	entries int
}

type hashEntry struct {
	key  Key
	tids []uint64
}

// NewHashIndex creates an empty hash index over the given column
// ordinals.
func NewHashIndex(name string, columns []int, unique bool) *HashIndex {
	return &HashIndex{
		name:    name,
		columns: append([]int(nil), columns...),
		unique:  unique,
		buckets: make(map[uint64][]hashEntry),
	}
}

// Name implements Index.
func (h *HashIndex) Name() string { return h.name }

// Columns implements Index.
func (h *HashIndex) Columns() []int { return h.columns }

// Unique reports whether the index rejects duplicate keys.
func (h *HashIndex) Unique() bool { return h.unique }

// Insert implements Index.
func (h *HashIndex) Insert(key Key, tid uint64) error {
	hash := HashKey(key)
	bucket := h.buckets[hash]
	for i := range bucket {
		if KeysEqual(bucket[i].key, key) {
			if h.unique {
				return ErrDuplicateKey
			}
			bucket[i].tids = append(bucket[i].tids, tid)
			h.entries++
			return nil
		}
	}
	h.buckets[hash] = append(bucket, hashEntry{key: key.Clone(), tids: []uint64{tid}})
	h.entries++
	return nil
}

// Delete implements Index.
func (h *HashIndex) Delete(key Key, tid uint64) {
	hash := HashKey(key)
	bucket := h.buckets[hash]
	for i := range bucket {
		if !KeysEqual(bucket[i].key, key) {
			continue
		}
		tids := bucket[i].tids
		for j, t := range tids {
			if t == tid {
				tids[j] = tids[len(tids)-1]
				bucket[i].tids = tids[:len(tids)-1]
				h.entries--
				break
			}
		}
		if len(bucket[i].tids) == 0 {
			bucket[i] = bucket[len(bucket)-1]
			bucket = bucket[:len(bucket)-1]
			if len(bucket) == 0 {
				delete(h.buckets, hash)
			} else {
				h.buckets[hash] = bucket
			}
		}
		return
	}
}

// Lookup implements Index.
//
//sstore:nomalloc
func (h *HashIndex) Lookup(key Key) []uint64 {
	for _, e := range h.buckets[HashKey(key)] {
		if KeysEqual(e.key, key) {
			return e.tids
		}
	}
	return nil
}
