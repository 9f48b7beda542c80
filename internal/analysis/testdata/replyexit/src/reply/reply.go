// Package reply exercises the reply-exit check: result values leave
// only through site.replyTo.
package reply

type result struct{ err error }

type site struct{}

func (s *site) replyTo(ch chan result, err error) {
	ch <- result{err: err}
}

func (s *site) shortcut(ch chan result) {
	ch <- result{} // want "send on chan reply.result outside its exit"
}
