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
	// BlockProfileRate, when > 0, is passed to runtime.SetBlockProfileRate
	// for the process lifetime (nanoseconds of blocking per sampled event;
	// 1 samples everything). Needed to see where channel parks — workers
	// waiting for requests, callers waiting for replies — spend their time.
	BlockProfileRate int
	// MutexProfileFraction, when > 0, is passed to
	// runtime.SetMutexProfileFraction (sample 1/n of contended mutex
	// events) — the knob that makes contention on the flight control ring
	// and staging arenas inspectable.
	MutexProfileFraction int
	// BlockProfile and MutexProfile are output paths for the corresponding
	// profiles, written at stop time. Setting a path without its rate gets
	// an empty profile; Start raises a zero rate to a useful default
	// when only the path was given.
	BlockProfile string
	MutexProfile string
}

// Start begins profiling as cfg selects: CPU, heap, and the runtime
// block/mutex contention profiles. It returns a stop function that must run
// before the process exits: it stops the CPU profile, writes the requested
// dump files, and resets the block/mutex sampling rates it set. Callers that
// exit through os.Exit must call stop explicitly first — a deferred call
// never runs.
func Start(cfg Config) (stop func() error, err error) {
	if cfg.BlockProfile != "" && cfg.BlockProfileRate <= 0 {
		cfg.BlockProfileRate = 1
	}
	if cfg.MutexProfile != "" && cfg.MutexProfileFraction <= 0 {
		cfg.MutexProfileFraction = 1
	}
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
	if cfg.BlockProfileRate > 0 {
		runtime.SetBlockProfileRate(cfg.BlockProfileRate)
	}
	if cfg.MutexProfileFraction > 0 {
		runtime.SetMutexProfileFraction(cfg.MutexProfileFraction)
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
		if cfg.BlockProfileRate > 0 {
			runtime.SetBlockProfileRate(0)
		}
		if cfg.MutexProfileFraction > 0 {
			runtime.SetMutexProfileFraction(0)
		}
		return nil
	}, nil
}
