package main

import (
	"bufio"
	"os"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"srccache/internal/netblock"
)

// Span names. The benchmark records spans only at boundaries it owns: the
// client call it makes and the netblock.Backend it hands to the server.
type spanName uint8

const (
	spClient     spanName = iota // client.call: root, one per timed op
	spBackend                    // backend.call: the engine behind the server
	spChainHead                  // chain.head: a fleet node's ChainBackend
	spChainLocal                 // chain.local: the flat volume inside it
)

var spanNames = [...]string{"client.call", "backend.call", "chain.head", "chain.local"}

// span is one timed interval. op is the id of the client op that caused
// it (−1 when none was in flight); all spans of one request share it.
// Times are nanoseconds since the recorder's epoch.
type span struct {
	name       spanName
	write      bool
	node       int8 // fleet node index, or the client index for client.call
	op         int64
	start, end int64
}

func (s span) dur() int64 { return s.end - s.start }

// recorder keeps spans in memory, preallocated so recording is one atomic
// add and one store. Backend decorators attribute their span to the op in
// flight on the client that owns the offset — exact, because the load is
// closed-loop with one op in flight per client and clients own disjoint
// shares of the span.
type recorder struct {
	epoch    time.Time
	spans    []span
	next     atomic.Int64
	share    int64          // bytes of the span each client owns
	inflight []atomic.Int64 // per client: op id in flight, −1 outside the timed region
}

func newRecorder(epoch time.Time, clients int, share int64, capacity int) *recorder {
	r := &recorder{epoch: epoch, spans: make([]span, capacity), share: share, inflight: make([]atomic.Int64, clients)}
	for i := range r.inflight {
		r.inflight[i].Store(-1)
	}
	return r
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) add(s span) {
	if i := r.next.Add(1) - 1; i < int64(len(r.spans)) {
		r.spans[i] = s
	}
}

// recorded returns the spans kept and how many did not fit.
func (r *recorder) recorded() (kept []span, dropped int64) {
	n := r.next.Load()
	if n > int64(len(r.spans)) {
		return r.spans, n - int64(len(r.spans))
	}
	return r.spans[:n], 0
}

// opAt returns the id of the op in flight on the client owning off, and
// whether tracing is live for it.
func (r *recorder) opAt(off int64) (int64, bool) {
	c := off / r.share
	if c >= int64(len(r.inflight)) {
		return -1, false
	}
	id := r.inflight[c].Load()
	return id, id >= 0
}

// tracedBackend is the benchmark-owned decorator at the server's backend
// boundary. Outside the timed region (no op in flight) it only forwards.
type tracedBackend struct {
	netblock.Backend
	rec  *recorder
	name spanName
	node int8
}

func (b *tracedBackend) ReadAt(p []byte, off int64) error {
	id, live := b.rec.opAt(off)
	if !live {
		return b.Backend.ReadAt(p, off)
	}
	t0 := b.rec.now()
	err := b.Backend.ReadAt(p, off)
	b.rec.add(span{name: b.name, node: b.node, op: id, start: t0, end: b.rec.now()})
	return err
}

func (b *tracedBackend) WriteAt(p []byte, off int64) error {
	id, live := b.rec.opAt(off)
	if !live {
		return b.Backend.WriteAt(p, off)
	}
	t0 := b.rec.now()
	err := b.Backend.WriteAt(p, off)
	b.rec.add(span{name: b.name, write: true, node: b.node, op: id, start: t0, end: b.rec.now()})
	return err
}

// selfTime is a span's duration minus the part of that interval its
// children cover. Children may overlap each other and may stick out of the
// parent; only the union inside the parent is subtracted. children must be
// sorted by start.
func selfTime(parent span, children []span) int64 {
	self := parent.dur()
	covered := parent.start
	for _, c := range children {
		lo, hi := c.start, c.end
		if lo < covered {
			lo = covered
		}
		if hi > parent.end {
			hi = parent.end
		}
		if hi > lo {
			self -= hi - lo
			covered = hi
		}
	}
	return self
}

// sortSpans orders spans so that each op's spans are contiguous, its root
// first, and every span precedes the spans nested inside it.
func sortSpans(spans []span) {
	sort.Slice(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if a.op != b.op {
			return a.op < b.op
		}
		if a.start != b.start {
			return a.start < b.start
		}
		if a.end != b.end {
			return a.end > b.end
		}
		return a.name < b.name
	})
}

// parents gives, for sorted spans, the index of the span that caused each
// one: the innermost earlier span of the same op that encloses it, −1 for
// a root or an orphan.
func parents(spans []span) []int {
	par := make([]int, len(spans))
	var stack []int
	for i, s := range spans {
		if i == 0 || spans[i-1].op != s.op {
			stack = stack[:0]
		}
		for len(stack) > 0 && spans[stack[len(stack)-1]].end < s.end {
			stack = stack[:len(stack)-1]
		}
		par[i] = -1
		if len(stack) > 0 && s.op >= 0 {
			par[i] = stack[len(stack)-1]
		}
		stack = append(stack, i)
	}
	return par
}

// writeChromeTrace writes sorted spans as Chrome trace-event JSON
// (chrome://tracing, Perfetto): complete events, microsecond timestamps,
// one row per client and per fleet node, the causing span in args.
func writeChromeTrace(path string, spans []span, par []int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	buf := make([]byte, 0, 256)
	w.WriteString(`{"displayTimeUnit":"ns","traceEvents":[` + "\n")
	for i, s := range spans {
		buf = buf[:0]
		if i > 0 {
			buf = append(buf, ",\n"...)
		}
		tid := int64(s.node)
		if s.name != spClient {
			tid += 10
		}
		buf = append(buf, `{"name":"`...)
		buf = append(buf, spanNames[s.name]...)
		buf = append(buf, `","ph":"X","pid":1,"tid":`...)
		buf = strconv.AppendInt(buf, tid, 10)
		buf = append(buf, `,"ts":`...)
		buf = strconv.AppendFloat(buf, float64(s.start)/1e3, 'f', 3, 64)
		buf = append(buf, `,"dur":`...)
		buf = strconv.AppendFloat(buf, float64(s.dur())/1e3, 'f', 3, 64)
		buf = append(buf, `,"args":{"op":`...)
		buf = strconv.AppendInt(buf, s.op, 10)
		buf = append(buf, `,"id":`...)
		buf = strconv.AppendInt(buf, int64(i), 10)
		buf = append(buf, `,"parent":`...)
		buf = strconv.AppendInt(buf, int64(par[i]), 10)
		buf = append(buf, `,"write":`...)
		buf = strconv.AppendBool(buf, s.write)
		buf = append(buf, "}}"...)
		w.Write(buf)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
