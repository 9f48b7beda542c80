// Package hot exercises the hot-path allocation analyzer: //sstore:nomalloc
// functions mirror the engine's deque ops and wire primitives.
package hot

type value struct {
	k int
	i int64
	f float64
	s string
}

func sink(v interface{}) { _ = v }

type ring struct {
	buf  []value
	head int
	tail int
}

// push is the hot deque op; growth is a separate, allocating slow path.
//
//sstore:nomalloc
func (r *ring) push(v value) {
	if r.tail == len(r.buf) {
		r.grow() // want "call to hot.ring.grow, which is not //sstore:nomalloc"
	}
	r.buf[r.tail] = v
	r.tail++
}

// pop is allocation-free: no findings.
//
//sstore:nomalloc
func (r *ring) pop() value {
	v := r.buf[r.head]
	r.head++
	return v
}

func (r *ring) grow() {
	next := make([]value, 2*len(r.buf)+1)
	copy(next, r.buf)
	r.buf = next
}

//sstore:nomalloc
func build() *ring {
	return &ring{} // want "composite literal allocates"
}

//sstore:nomalloc
func makes() []value {
	return make([]value, 4) // want "make allocates"
}

//sstore:nomalloc
func closes(n int) func() int {
	return func() int { return n } // want "function literal \\(closure\\) allocates"
}

//sstore:nomalloc
func appendSelf(buf []value, v value) []value {
	buf = append(buf, v) // self-append idiom: caller-owned buffer, no finding
	return buf
}

//sstore:nomalloc
func appendReturn(buf []value, v value) []value {
	return append(buf, v) // append-style API: growth is the caller's contract
}

//sstore:nomalloc
func appendOther(dst, src []value, v value) []value {
	dst = append(src, v) // want "append outside the self-append idiom"
	return dst
}

//sstore:nomalloc
func toBytes(s string) int {
	b := []byte(s) // want "string conversion copies its bytes"
	return len(b)
}

//sstore:nomalloc
func boxValue(v value) {
	sink(v) // want "boxing hot.value into" "call to hot.sink, which is not //sstore:nomalloc"
}

//sstore:nomalloc
func boxInt(n int) {
	sink(n) // want "boxing int into" "call to hot.sink, which is not //sstore:nomalloc"
}

// allowed documents its deliberate slow path with a suppression.
//
//sstore:nomalloc
func allowed() *ring {
	//lint:allow hotalloc -- construction path, not the hot loop
	return &ring{}
}

// getNode / putNode form a pooled pair: calling them from nomalloc
// code is allowed even though a cold pool allocates inside.
//
//sstore:pooled
func getNode() *ring {
	//lint:allow hotalloc -- cold-pool miss; steady state recycles
	return &ring{}
}

//sstore:pooled
func putNode(r *ring) {
	_ = r
}

//sstore:nomalloc
func recycles() {
	r := getNode() // pooled callee: no finding
	putNode(r)     // pooled callee: no finding
}

// list is generic: a call through an instantiation resolves to the
// declared method, so the declaration's annotation is what counts.
type list[T any] struct{ s []T }

//sstore:nomalloc
func (l *list[T]) at(i int) T { return l.s[i] }

func (l *list[T]) grow() { l.s = make([]T, 2*len(l.s)+1) }

//sstore:nomalloc
func genericCalls(l *list[int]) int {
	l.grow()       // want "call to hot.list.grow, which is not //sstore:nomalloc"
	return l.at(0) // annotated generic method: no finding
}
