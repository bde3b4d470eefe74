package obs

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// StartCPUProfile begins CPU profiling into path and returns a stop
// function to defer — the -cpuprofile flag of the commands. The file
// is opened with os.OpenFile (not os.Create) deliberately: a profile
// is a diagnostic artifact, not a checkpoint, so it is exempt from the
// atomic-write rule but still kept out of the grep gate in
// scripts/check.sh.
func StartCPUProfile(path string) (stop func(), err error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

// WriteMemProfile dumps the allocation profile to path (the
// -memprofile flag). It runs a GC first so the heap numbers reflect
// live objects, not garbage awaiting collection; the allocs profile
// still carries cumulative allocation counts, which is what the
// zero-allocation hot-path work is tuned by.
func WriteMemProfile(path string) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		return fmt.Errorf("mem profile: %w", err)
	}
	return nil
}
