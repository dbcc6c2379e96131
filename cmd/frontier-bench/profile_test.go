package main

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"runtime/pprof"
	"testing"
	"time"
)

var spinSink uint64

//go:noinline
func spinForProfile(d time.Duration) {
	x := spinSink
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1e5; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	spinSink = x
}

func TestFoldProfileRecordedHere(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Skip("cpu profiler unavailable:", err)
	}
	spinForProfile(400 * time.Millisecond)
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	fold, err := foldProfile(context.Background(), path)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, v := range fold {
		sum += v
	}
	if sum < 0.1 || fold["loadgen"] < 0.5*sum {
		t.Fatalf("fold %v: want most of ~0.4s of CPU in loadgen, where the benchmark's own frames go", fold)
	}
}

func TestFoldTraces(t *testing.T) {
	out := `File: frontier-bench
Type: cpu
Duration: 1s, Total samples = 40000000ns ( 4.00%)
-----------+-------------------------------------------------------
30000000ns   frontiersim/internal/network.(*Solver).fill (inline)
             frontiersim/internal/network.Solve
-----------+-------------------------------------------------------
  workload:  census
10000000ns   runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
`
	fold, err := foldTraces([]byte(out))
	if err != nil {
		t.Fatal(err)
	}
	if want := map[string]float64{"network.solve": 0.03, "gc": 0.01}; !reflect.DeepEqual(fold, want) {
		t.Errorf("fold = %v, want %v", fold, want)
	}
	if _, err := foldTraces([]byte("-----------+---\n1.5s   main.main\n")); err == nil {
		t.Error("a value not in ns folded without error")
	}
}

func TestClassify(t *testing.T) {
	for _, c := range []struct {
		want   string
		frames []string // leaf first
	}{
		{"network.solve", []string{"sort.Ints", "frontiersim/internal/network.(*Solver).fill", "frontiersim/internal/network.Solve"}},
		{"network.other", []string{"frontiersim/internal/network.buildShiftDemands", "frontiersim/internal/experiments.Fig6"}},
		{"fabric.build", []string{"runtime.makeslice", "frontiersim/internal/fabric.(*Fabric).addLink",
			"frontiersim/internal/fabric.NewDragonfly", "frontiersim/internal/machine.Spec.NewFabric", "frontiersim/internal/core.New"}},
		{"fabric.build", []string{"frontiersim/internal/fabric.(*Fabric).BuildRoutingTable", "frontiersim/internal/fabric.(*Manager).Sweep"}},
		{"fabric.paths", []string{"frontiersim/internal/fabric.(*Fabric).appendMinimalPath", "frontiersim/internal/fabric.(*PathCache).Paths"}},
		{"hash", []string{"crypto/sha256.block", "crypto/sha256.(*Digest).Write", "frontiersim/internal/network.DemandSignature"}},
		{"hash", []string{"crypto/sha256.block", "frontiersim/internal/campaign/cache.ResultKey"}},
		{"scheduler", []string{"frontiersim/internal/rng.(*Source).Uint64", "frontiersim/internal/scheduler.(*Scheduler).place"}},
		{"models", []string{"frontiersim/internal/llm.AutoStep"}},
		{"campaign", []string{"frontiersim/internal/campaign/cache.(*Cache).GetOrCompute"}},
		{"gc", []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}},
		{"gc", []string{"runtime.gcAssistAlloc", "runtime.mallocgc", "frontiersim/internal/job.(*Env).Bind"}},
		{"campaign", []string{"syscall.Syscall", "net/http.(*conn).readRequest", "net/http.(*conn).serve"}},
		{"loadgen", []string{"net/http.(*persistConn).readLoop"}},
		{"loadgen", []string{"time.Now", "main.(*client).repeatAsks"}},
		{"other", []string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}},
		{"other", []string{"frontiersim/internal/profiling.StartConfig"}},
	} {
		if got := classify(c.frames); got != c.want {
			t.Errorf("classify(%v) = %s, want %s", c.frames, got, c.want)
		}
	}
}
