package profiling

import (
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
)

func TestStartConfigWritesAllProfiles(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		CPU:   filepath.Join(dir, "cpu.pprof"),
		Mem:   filepath.Join(dir, "mem.pprof"),
		Mutex: filepath.Join(dir, "mutex.pprof"),
		Block: filepath.Join(dir, "block.pprof"),
	}
	stop, err := StartConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Generate at least one contention event so the mutex and block
	// profiles have something to record.
	var mu sync.Mutex
	mu.Lock()
	done := make(chan struct{})
	go func() {
		mu.Lock()
		mu.Unlock() //nolint:staticcheck // empty critical section is the point
		close(done)
	}()
	runtime.Gosched()
	mu.Unlock()
	<-done
	stop()

	for _, path := range []string{cfg.CPU, cfg.Mem, cfg.Mutex, cfg.Block} {
		st, err := os.Stat(path)
		if err != nil {
			t.Errorf("profile not written: %v", err)
			continue
		}
		if st.Size() == 0 {
			t.Errorf("%s: empty profile", filepath.Base(path))
		}
	}
	if runtime.SetMutexProfileFraction(-1) != 0 {
		t.Error("mutex profiling left armed after stop")
	}
}

func TestStartConfigBadPath(t *testing.T) {
	if _, err := StartConfig(Config{CPU: filepath.Join(t.TempDir(), "no", "such", "dir", "x")}); err == nil {
		t.Fatal("expected error for unwritable CPU profile path")
	}
}
