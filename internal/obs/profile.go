package obs

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// StartProfiles is the -cpuprofile/-memprofile pair of the command-line
// tools: it starts a CPU profile into cpuPath and opens memPath, either of
// which may be empty, and fails before anything runs if a file cannot be
// created. The stop function it returns ends the CPU profile and writes the
// heap profile (allocation totals included; run under
// GODEBUG=memprofilerate=1 to have every object counted, not a sample); it
// must be called once, when the profiled work is done.
func StartProfiles(cpuPath, memPath string) (stop func() error, err error) {
	create := func(flag, path string) (*os.File, error) {
		if path == "" {
			return nil, nil
		}
		f, err := os.Create(path)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", flag, err)
		}
		return f, nil
	}
	cpu, err := create("cpuprofile", cpuPath)
	if err != nil {
		return nil, err
	}
	mem, err := create("memprofile", memPath)
	if err == nil && cpu != nil {
		if err = pprof.StartCPUProfile(cpu); err != nil {
			err = fmt.Errorf("cpuprofile: %w", err)
		}
	}
	if err != nil {
		// Close on a nil *os.File is a harmless error.
		cpu.Close()
		mem.Close()
		return nil, err
	}
	return func() error {
		var first error
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				first = fmt.Errorf("cpuprofile: %w", err)
			}
		}
		if mem != nil {
			runtime.GC() // so the profile's live-heap figures are current
			err := pprof.WriteHeapProfile(mem)
			if cerr := mem.Close(); err == nil {
				err = cerr
			}
			if err != nil && first == nil {
				first = fmt.Errorf("memprofile: %w", err)
			}
		}
		return first
	}, nil
}
