// Package use exercises the lockheld analyzer.
package use

import (
	"sync"

	"l/internal/blockdev"
	"l/internal/netblock"
)

type store struct {
	mu  sync.Mutex
	rw  sync.RWMutex
	dev *blockdev.Dev
}

// lockAcrossIO is the bug shape: the mutex is held across a device call.
func (s *store) lockAcrossIO() error {
	s.mu.Lock()
	err := s.dev.Submit(0, 1) // want `blockdev.Submit called while mu may be held`
	s.mu.Unlock()
	return err
}

// deferUnlock is the idiomatic pattern the check must NOT flag: the defer
// discharges the lock-across-I/O obligation (matching the repo's
// netblock.roundTrip, where the lock deliberately serializes the transport).
func (s *store) deferUnlock() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dev.Submit(0, 1)
}

// unlockBeforeIO releases before the call: clean.
func (s *store) unlockBeforeIO(p []byte) error {
	s.mu.Lock()
	off := int64(len(p))
	s.mu.Unlock()
	return s.dev.ReadAt(p, off)
}

// rlockAcross holds a read lock across I/O: same problem.
func (s *store) rlockAcross(p []byte) error {
	s.rw.RLock()
	defer s.rw.RUnlock()
	return nil
}

// branchLeak unlocks on one path only; the I/O after the if is reachable
// with the lock still held (may-analysis).
func (s *store) branchLeak(fast bool) error {
	s.mu.Lock()
	if fast {
		s.mu.Unlock()
	}
	err := s.dev.Flush() // want `blockdev.Flush called while mu may be held`
	if fast {
		return err
	}
	s.mu.Unlock()
	return err
}

// dialUnderLock holds the lock across a netblock dial.
func (s *store) dialUnderLock(addr string) (*netblock.Conn, error) {
	s.mu.Lock()
	defer func() {
		s.mu.Unlock()
	}()
	return netblock.Dial(addr) // want `netblock.Dial called while mu may be held`
}

// twoLocks holds both mutexes; the message names them deterministically.
func (s *store) twoLocks() error {
	s.mu.Lock()
	s.rw.Lock()
	err := s.dev.Flush() // want `blockdev.Flush called while mu, rw may be held`
	s.rw.Unlock()
	s.mu.Unlock()
	return err
}

// nonIOUnderLock calls a contract-package method that is not I/O: clean.
func (s *store) nonIOUnderLock() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dev.Resize(4096)
}

// allowedHold documents a deliberate exception via suppression: the lock
// is held across the flush, and the directive covers that one finding.
func (s *store) allowedHold() error {
	s.mu.Lock()
	//srclint:allow lockheld single-threaded setup path, lock is uncontended
	err := s.dev.Flush()
	s.mu.Unlock()
	return err
}

// litOwnLock shows a function literal analyzed on its own: its lock does not
// leak into the enclosing function, and vice versa.
func (s *store) litOwnLock() error {
	flush := func() error {
		s.mu.Lock()
		err := s.dev.Flush() // want `blockdev.Flush called while mu may be held`
		s.mu.Unlock()
		return err
	}
	return flush()
}
