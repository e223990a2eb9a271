// Package watchdog bounds a test that can hang: one that serves several
// connections wedges if one of them holds a lock the others need, and would
// otherwise wait out go test's -timeout.
package watchdog

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// Limit is how long an armed test may run; the slowest takes about 2 s.
const Limit = 10 * time.Second

// Arm panics with every goroutine's stack unless t's test ends within
// Limit. It panics rather than failing t, which a hung test never returns
// to see.
func Arm(t testing.TB) {
	timer := time.AfterFunc(Limit, func() {
		buf := make([]byte, 1<<20)
		panic(fmt.Sprintf("watchdog: %s still running after %v\n\n%s", t.Name(), Limit, buf[:runtime.Stack(buf, true)]))
	})
	t.Cleanup(func() { timer.Stop() })
}
