// Package prof wires the conventional -cpuprofile / -memprofile flags into
// the repository's command-line tools, so the hot-path work of the serving
// and benchmark binaries can be inspected with `go tool pprof` without
// rebuilding them as tests.
package prof

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Config selects which profiles to collect. Zero fields are off, so the
// zero value is a no-op Start.
type Config struct {
	// CPUProfile and MemProfile are the conventional output paths (the CPU
	// profile runs for the process lifetime; the heap profile is written at
	// stop time after a GC).
	CPUProfile string
	MemProfile string
	// BlockProfile and MutexProfile are output paths for the runtime's
	// goroutine-blocking and mutex-contention profiles, written at stop
	// time. Setting one samples every such event while profiling runs:
	// where channel parks and contended locks spend their time.
	BlockProfile string
	MutexProfile string
}

// Start begins profiling as cfg selects: CPU, heap, and the runtime
// block/mutex contention profiles. It returns a stop function that must run
// before the process exits: it stops the CPU profile, writes the requested
// dump files, and turns off the block/mutex sampling it turned on. Callers
// that exit through os.Exit must call stop explicitly first — a deferred
// call never runs.
func Start(cfg Config) (stop func() error, err error) {
	var cpuFile *os.File
	if cfg.CPUProfile != "" {
		cpuFile, err = os.Create(cfg.CPUProfile)
		if err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
	}
	if cfg.BlockProfile != "" {
		runtime.SetBlockProfileRate(1)
	}
	if cfg.MutexProfile != "" {
		runtime.SetMutexProfileFraction(1)
	}
	writeLookup := func(name, path string) error {
		if path == "" {
			return nil
		}
		f, err := os.Create(path)
		if err != nil {
			return fmt.Errorf("%s profile: %w", name, err)
		}
		defer f.Close()
		p := pprof.Lookup(name)
		if p == nil {
			return fmt.Errorf("%s profile: unknown runtime profile", name)
		}
		if err := p.WriteTo(f, 0); err != nil {
			return fmt.Errorf("%s profile: %w", name, err)
		}
		return nil
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return fmt.Errorf("cpuprofile: %w", err)
			}
		}
		if cfg.MemProfile != "" {
			f, err := os.Create(cfg.MemProfile)
			if err != nil {
				return fmt.Errorf("memprofile: %w", err)
			}
			defer f.Close()
			runtime.GC() // get up-to-date live-heap statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				return fmt.Errorf("memprofile: %w", err)
			}
		}
		if err := writeLookup("block", cfg.BlockProfile); err != nil {
			return err
		}
		if err := writeLookup("mutex", cfg.MutexProfile); err != nil {
			return err
		}
		if cfg.BlockProfile != "" {
			runtime.SetBlockProfileRate(0)
		}
		if cfg.MutexProfile != "" {
			runtime.SetMutexProfileFraction(0)
		}
		return nil
	}, nil
}
