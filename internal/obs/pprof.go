package obs

import (
	"os"
	"runtime"
	"runtime/pprof"
)

// The simulator's own host profiles (go tool pprof), behind the CLIs'
// -cpuprofile and -memprofile flags.

// StartCPUProfile begins CPU profiling into path and returns the stop
// function that also closes the file.
func StartCPUProfile(path string) (stop func(), err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

// WriteHeapProfile snapshots the heap (after a GC, so the profile shows
// live objects plus accurate allocation totals) into path.
func WriteHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
