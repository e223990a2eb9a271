package src

import (
	"testing"

	"srccache/internal/blockdev"
	"srccache/internal/workload"
)

// TestSegmentBuffersStayOneSegmentLong: with Sel-GC copying into the very
// buffers whose writes trigger it, every buffer still holds at most one
// segment after every Submit (the overshoot segBuffer allows a healthy
// array stays inside the request), and its capacity is what it was built
// with. On the parent Cap followed the slice's growth
// and the dirty buffer ratcheted from 6 pages to hundreds.
func TestSegmentBuffersStayOneSegmentLong(t *testing.T) {
	for _, separate := range []bool{false, true} {
		e := newEnv(t, func(c *Config) { c.GC = SelGC; c.SeparateGCBuffer = separate })
		c := e.cache
		gen, err := workload.NewGenerator(workload.Config{
			Pattern: workload.Zipf, Span: 6000 * blockdev.PageSize, ReadFraction: 0.5, Seed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		bufs := []struct {
			name  string
			buf   *segBuffer
			dirty bool
		}{{"dirty", c.dirtyBuf, true}, {"clean", c.cleanBuf, false}, {"gc", c.gcBuf, true}}
		for i := 0; i < 40000; i++ {
			req, _ := gen.Next()
			done, err := c.Submit(e.at, req)
			if err != nil {
				t.Fatalf("request %d: %v", i, err)
			}
			e.at = done
			for _, b := range bufs {
				if b.buf == nil {
					continue
				}
				if want := int(c.bufCapacity(b.dirty)); b.buf.Cap() != want {
					t.Fatalf("request %d: %s buffer Cap() = %d, want bufCapacity %d", i, b.name, b.buf.Cap(), want)
				}
				if b.buf.Len() > b.buf.Cap() {
					t.Fatalf("request %d: %s buffer holds %d slots, capacity %d", i, b.name, b.buf.Len(), b.buf.Cap())
				}
			}
		}
		if c.Counters().GCCopyBytes == 0 {
			t.Fatal("Sel-GC never copied: the stream did not exercise reinsert")
		}
		e.checkInvariants()
	}
}
