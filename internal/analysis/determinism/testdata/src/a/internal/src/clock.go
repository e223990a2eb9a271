// Positive fixture: the package path ends in internal/src, so the
// determinism contract applies.
package src

import "time"

func bad() time.Duration {
	t0 := time.Now()             // want `time\.Now reads the wall clock`
	time.Sleep(time.Millisecond) // want `time\.Sleep reads the wall clock`
	<-time.Tick(time.Second)     // want `time\.Tick reads the wall clock`
	return time.Since(t0)        // want `time\.Since reads the wall clock`
}

func badValueUse() {
	// Referencing the function without calling it is just as banned.
	f := time.After // want `time\.After reads the wall clock`
	_ = f
}

func allowedTrailing() time.Time {
	return time.Now() //srclint:allow determinism progress display only
}

func allowedAbove() time.Time {
	//srclint:allow determinism progress display only
	return time.Now()
}

// Durations, constants and conversions are the vtime interop surface and
// stay legal.
func durationsAreFine(d time.Duration) time.Duration {
	return d + 3*time.Millisecond
}
