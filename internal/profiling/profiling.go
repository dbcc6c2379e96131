// Package profiling wires the standard -cpuprofile/-memprofile flags —
// and, for the harness worker pool and the caches its workers share,
// -mutexprofile/-blockprofile — into the simulator's command-line tools,
// so hot-path work (like the RNG seeding tax internal/rng removed, or
// workers waiting on a shared cache's lock) can be found with
// `go tool pprof` instead of guesswork. See README's "Profiling the
// simulator" section for the workflow.
package profiling

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Config names the profile outputs to collect; empty fields are off.
type Config struct {
	CPU   string // pprof CPU profile
	Mem   string // heap profile, written at stop
	Mutex string // contended-mutex profile (SetMutexProfileFraction(1))
	Block string // blocking profile (SetBlockProfileRate(1)) — channel and lock waits show here
}

// Start begins CPU profiling (if cpuPath is non-empty) and returns a
// stop function that finishes the CPU profile and, if memPath is
// non-empty, writes a heap profile. Callers must invoke stop on every
// exit path that should produce profiles — typically via an explicit
// call before os.Exit, since os.Exit skips deferred calls.
func Start(cpuPath, memPath string) (stop func(), err error) {
	return StartConfig(Config{CPU: cpuPath, Mem: memPath})
}

// StartConfig begins every profile named in cfg and returns a stop
// function that flushes them. Mutex and block profiling have runtime
// overhead while armed (every contention event is sampled, rate 1), so
// they are only switched on when an output path asks for them, and the
// rates are restored to off at stop.
func StartConfig(cfg Config) (stop func(), err error) {
	var cpuFile *os.File
	if cfg.CPU != "" {
		cpuFile, err = os.Create(cfg.CPU)
		if err != nil {
			return nil, fmt.Errorf("profiling: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("profiling: %w", err)
		}
	}
	if cfg.Mutex != "" {
		runtime.SetMutexProfileFraction(1)
	}
	if cfg.Block != "" {
		runtime.SetBlockProfileRate(1)
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if cfg.Mem != "" {
			runtime.GC() // materialise the final live set
			writeLookup(cfg.Mem, "heap")
		}
		if cfg.Mutex != "" {
			writeLookup(cfg.Mutex, "mutex")
			runtime.SetMutexProfileFraction(0)
		}
		if cfg.Block != "" {
			writeLookup(cfg.Block, "block")
			runtime.SetBlockProfileRate(0)
		}
	}, nil
}

// writeLookup writes one named runtime profile, reporting (not
// returning) errors: profile flushing happens on exit paths where a
// failed write should not change the command's outcome.
func writeLookup(path, name string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "profiling:", err)
		return
	}
	defer f.Close()
	p := pprof.Lookup(name)
	if p == nil {
		fmt.Fprintf(os.Stderr, "profiling: no %s profile\n", name)
		return
	}
	if err := p.WriteTo(f, 0); err != nil {
		fmt.Fprintln(os.Stderr, "profiling:", err)
	}
}
