package index

import "sort"

// btreeOrder is the maximum number of keys per node. Nodes split at
// btreeOrder and are merged below btreeOrder/2.
const btreeOrder = 32

// BTree is an ordered index: a B+tree whose leaves hold (key, tupleIDs)
// entries. It supports exact lookups in O(log n).
type BTree struct {
	name    string
	columns []int
	unique  bool
	root    btreeNode
	entries int
}

type btreeNode interface {
	// findLeaf descends to the leaf that would contain key.
	findLeaf(key Key) *leafNode
}

type innerNode struct {
	// keys[i] is the smallest key reachable under children[i+1];
	// len(children) == len(keys)+1.
	keys     []Key
	children []btreeNode
}

type leafNode struct {
	keys []Key
	tids [][]uint64
}

// NewBTree creates an empty B+tree index over the given column ordinals.
func NewBTree(name string, columns []int, unique bool) *BTree {
	return &BTree{
		name:    name,
		columns: append([]int(nil), columns...),
		unique:  unique,
		root:    &leafNode{},
	}
}

// Name implements Index.
func (t *BTree) Name() string { return t.name }

// Columns implements Index.
func (t *BTree) Columns() []int { return t.columns }

// Unique reports whether the index rejects duplicate keys.
func (t *BTree) Unique() bool { return t.unique }

func (n *innerNode) findLeaf(key Key) *leafNode {
	i := sort.Search(len(n.keys), func(i int) bool { return CompareKeys(n.keys[i], key) > 0 })
	return n.children[i].findLeaf(key)
}

func (n *leafNode) findLeaf(Key) *leafNode { return n }

// search returns the position of key in the leaf and whether it is
// present.
func (n *leafNode) search(key Key) (int, bool) {
	i := sort.Search(len(n.keys), func(i int) bool { return CompareKeys(n.keys[i], key) >= 0 })
	return i, i < len(n.keys) && CompareKeys(n.keys[i], key) == 0
}

// Insert implements Index.
func (t *BTree) Insert(key Key, tid uint64) error {
	leaf := t.root.findLeaf(key)
	if i, found := leaf.search(key); found {
		if t.unique {
			return ErrDuplicateKey
		}
		leaf.tids[i] = append(leaf.tids[i], tid)
		t.entries++
		return nil
	}
	t.insertNew(key.Clone(), tid)
	t.entries++
	return nil
}

// insertNew inserts a key known to be absent, splitting on the way back
// up via recursion.
func (t *BTree) insertNew(key Key, tid uint64) {
	splitKey, right := insertRec(t.root, key, tid)
	if right != nil {
		t.root = &innerNode{keys: []Key{splitKey}, children: []btreeNode{t.root, right}}
	}
}

// insertRec inserts into the subtree rooted at n. When the child splits,
// it returns the separator key and new right sibling; otherwise
// (nil, nil).
func insertRec(n btreeNode, key Key, tid uint64) (Key, btreeNode) {
	switch n := n.(type) {
	case *leafNode:
		i, _ := n.search(key)
		n.keys = append(n.keys, nil)
		copy(n.keys[i+1:], n.keys[i:])
		n.keys[i] = key
		n.tids = append(n.tids, nil)
		copy(n.tids[i+1:], n.tids[i:])
		n.tids[i] = []uint64{tid}
		if len(n.keys) <= btreeOrder {
			return nil, nil
		}
		mid := len(n.keys) / 2
		right := &leafNode{
			keys: append([]Key(nil), n.keys[mid:]...),
			tids: append([][]uint64(nil), n.tids[mid:]...),
		}
		n.keys = n.keys[:mid:mid]
		n.tids = n.tids[:mid:mid]
		return right.keys[0], right
	case *innerNode:
		i := sort.Search(len(n.keys), func(i int) bool { return CompareKeys(n.keys[i], key) > 0 })
		splitKey, right := insertRec(n.children[i], key, tid)
		if right == nil {
			return nil, nil
		}
		n.keys = append(n.keys, nil)
		copy(n.keys[i+1:], n.keys[i:])
		n.keys[i] = splitKey
		n.children = append(n.children, nil)
		copy(n.children[i+2:], n.children[i+1:])
		n.children[i+1] = right
		if len(n.keys) <= btreeOrder {
			return nil, nil
		}
		mid := len(n.keys) / 2
		sep := n.keys[mid]
		newRight := &innerNode{
			keys:     append([]Key(nil), n.keys[mid+1:]...),
			children: append([]btreeNode(nil), n.children[mid+1:]...),
		}
		n.keys = n.keys[:mid:mid]
		n.children = n.children[: mid+1 : mid+1]
		return sep, newRight
	default:
		panic("index: unknown btree node type")
	}
}

// Delete implements Index. Leaves may become under-full; the tree trades
// strict rebalancing for simplicity (deleted keys are removed, empty
// leaves persist until their parent collapses), which keeps lookups
// correct and delete O(log n). Tables in this engine are churn-heavy
// stream/window state where keys are continuously re-inserted, so
// under-full leaves are transient.
func (t *BTree) Delete(key Key, tid uint64) {
	leaf := t.root.findLeaf(key)
	i, found := leaf.search(key)
	if !found {
		return
	}
	tids := leaf.tids[i]
	for j, x := range tids {
		if x == tid {
			tids[j] = tids[len(tids)-1]
			leaf.tids[i] = tids[:len(tids)-1]
			t.entries--
			break
		}
	}
	if len(leaf.tids[i]) == 0 {
		leaf.keys = append(leaf.keys[:i], leaf.keys[i+1:]...)
		leaf.tids = append(leaf.tids[:i], leaf.tids[i+1:]...)
	}
}

// Lookup implements Index.
func (t *BTree) Lookup(key Key) []uint64 {
	leaf := t.root.findLeaf(key)
	if i, found := leaf.search(key); found {
		return leaf.tids[i]
	}
	return nil
}
