package engine

import (
	"errors"
	"fmt"

	"srccache/internal/blockdev"
	"srccache/internal/vtime"
)

// Serial is the deterministic virtual-time view of an engine: the same
// routing, the same fragment walk and the same shard.do as the Backend
// methods, with the caller's virtual time carried in and the completion
// time carried out. Tests use it as the oracle for the Backend methods.
//
// Serial runs under the same shard locks as the Backend methods, so it is
// safe at any time, but replay is deterministic — byte-identical across
// runs — only while it is the engine's sole caller, because then one caller
// decides the op order.
type Serial struct {
	e *Engine
}

// Serial returns the deterministic view.
func (e *Engine) Serial() *Serial { return &Serial{e: e} }

// Submit executes the request's fragments in address order. Completion is
// the latest clock of the shards it touched; each shard's clock stays
// independently monotonic. A request carries no bytes, so a payload engine
// refuses it: its served bytes would fall behind its cache model.
func (s *Serial) Submit(at vtime.Time, req blockdev.Request) (vtime.Time, error) {
	if s.e.shards[0].data != nil {
		return at, errors.New("engine: Serial on a payload engine")
	}
	var kind opKind
	switch req.Op {
	case blockdev.OpRead:
		kind = kRead
	case blockdev.OpWrite:
		kind = kWrite
	case blockdev.OpTrim:
		kind = kTrim
	default:
		return at, fmt.Errorf("engine: bad op %v", req.Op)
	}
	return s.e.submit(at, kind, req.Off, req.Len, nil)
}
