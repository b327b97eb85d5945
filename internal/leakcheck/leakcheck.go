// Package leakcheck gates tests on goroutine leaks. Every sim.Env runs
// its processes on pooled coroutines, one goroutine each, that live until
// the environment is closed; an owner that forgets sim.Env.Close leaves
// them, and the whole world they reach, behind. Tests compare
// runtime.NumGoroutine before and after the code under test, with Settle
// allowing exiting goroutines a moment to be reaped.
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// Settle waits up to a second for the goroutine count to fall to want
// and returns the last count it saw.
func Settle(want int) int {
	deadline := time.Now().Add(time.Second)
	n := runtime.NumGoroutine()
	for n > want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// Main runs a package's tests and fails the test binary when more
// goroutines are alive after them than before: a package-wide gate that
// every environment the tests built was closed. Call it from TestMain.
func Main(m *testing.M) {
	start := runtime.NumGoroutine()
	code := m.Run()
	if n := Settle(start); n > start && code == 0 {
		fmt.Fprintf(os.Stderr, "leakcheck: %d goroutines after the tests, %d before: %d leaked\n", n, start, n-start)
		code = 1
	}
	os.Exit(code)
}
