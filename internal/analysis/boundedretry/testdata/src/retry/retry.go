// Package retry exercises the boundedretry analyzer.
package retry

type conn struct{ ok bool }

func dialPeer() (*conn, error) { return &conn{ok: true}, nil }

// unbounded spins forever against a dead peer.
func unbounded() *conn {
	for { // want `retry loop calls dialPeer but a back edge consults no budget`
		c, err := dialPeer()
		if err == nil {
			return c
		}
	}
}

// bounded consults an attempt limit on every back edge.
func bounded(limit int) *conn {
	for attempt := 0; ; attempt++ {
		c, err := dialPeer()
		if err == nil {
			return c
		}
		if attempt >= limit {
			return nil
		}
	}
}

// condBounded carries the bound in the loop condition itself.
func condBounded(limit int) *conn {
	for attempt := 0; attempt < limit; attempt++ {
		if c, err := dialPeer(); err == nil {
			return c
		}
	}
	return nil
}

// deadlined consults a deadline helper instead of a counter.
func deadlined() *conn {
	for {
		c, err := dialPeer()
		if err == nil {
			return c
		}
		if overDeadline() {
			return nil
		}
	}
}

func overDeadline() bool { return false }

// rangeScan is out of scope: ranging over candidates is bounded by the
// collection.
func rangeScan(n int) *conn {
	addrs := make([]string, n)
	for range addrs {
		if c, err := dialPeer(); err == nil {
			return c
		}
	}
	return nil
}

// selectBacked blocks on a cancellation-aware select each back edge.
func selectBacked(stop chan struct{}) *conn {
	for {
		c, err := dialPeer()
		if err == nil {
			return c
		}
		select {
		case <-stop:
			return nil
		case <-tick():
		}
	}
}

func tick() chan struct{} { return nil }

// mixed consults the bound on one path but a continue skips it: the
// analyzer demands the consult on every back edge.
func mixed(limit int, flaky bool) *conn {
	for attempt := 0; ; attempt++ { // want `retry loop calls dialPeer but a back edge consults no budget`
		c, err := dialPeer()
		if err == nil {
			return c
		}
		if flaky {
			continue
		}
		if attempt >= limit {
			return nil
		}
	}
}

// wrapperTriggered is flagged only because acquire's body calls a dialer
// directly; its own name says nothing about dialing.
func wrapperTriggered() {
	for { // want `retry loop calls acquire but a back edge consults no budget`
		if acquire() == nil {
			return
		}
	}
}

func acquire() error {
	_, err := dialPeer()
	return err
}

// wrapperConsulted consults its budget through exhausted, whose body calls
// a deadline-shaped helper directly.
func wrapperConsulted() *conn {
	for {
		if c, err := dialPeer(); err == nil {
			return c
		}
		if exhausted() {
			return nil
		}
	}
}

func exhausted() bool { return overDeadline() }
