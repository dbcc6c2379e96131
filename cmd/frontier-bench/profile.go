package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// foldProfile charges every sample of the CPU profile at path to one layer
// and returns CPU seconds per layer. The Go toolchain's pprof decodes the
// profile and prints each sample's stack.
func foldProfile(ctx context.Context, path string) (map[string]float64, error) {
	cmd := exec.CommandContext(ctx, "go", "tool", "pprof", "-traces", "-symbolize=none",
		"-sample_index=cpu", "-unit=ns", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w: %s", err, strings.TrimSpace(stderr.String()))
	}
	return foldTraces(out)
}

// foldTraces folds the output of pprof -traces -unit=ns. After a header,
// each sample is a line of dashes, any "key:  value" label lines, a line
// with the sample's value and its leaf frame, then one caller per line.
// Inlined frames carry an "(inline)" suffix.
func foldTraces(out []byte) (map[string]float64, error) {
	fold := map[string]float64{}
	var frames []string
	var ns float64
	inSample := false
	flush := func() {
		if len(frames) > 0 {
			fold[classify(frames)] += ns / 1e9
		}
		frames, ns = frames[:0], 0
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inSample = true
			continue
		}
		f := strings.Fields(line)
		if !inSample || len(f) == 0 || strings.HasSuffix(f[0], ":") {
			continue
		}
		if len(frames) == 0 { // the value line
			v, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ns"), 64)
			if err != nil || len(f) < 2 {
				return nil, fmt.Errorf("pprof -traces: unexpected sample line %q", line)
			}
			ns, f = v, f[1:]
		}
		frames = append(frames, f[0])
	}
	flush()
	return fold, sc.Err()
}

// pkgOf returns the package path of a profile function name such as
// "frontiersim/internal/network.(*Solver).fill".
func pkgOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// models are the hardware and application model packages; their CPU is
// reported together.
var models = map[string]bool{
	"apps": true, "cpu": true, "gpu": true, "hpl": true, "llm": true, "memory": true,
	"miniapps": true, "node": true, "power": true, "software": true, "storage": true,
	"sysmgmt": true,
}

// buildMarkers are the calls under which fabric work is construction
// rather than path generation.
var buildMarkers = map[string]bool{
	"frontiersim/internal/core.New":                               true,
	"frontiersim/internal/fabric.NewDragonfly":                    true,
	"frontiersim/internal/fabric.NewClos":                         true,
	"frontiersim/internal/fabric.(*Fabric).BuildAllRoutingTables": true,
	"frontiersim/internal/fabric.(*Fabric).BuildRoutingTable":     true,
}

func isBenchPkg(pkg string) bool { return pkg == "main" || pkg == "frontiersim/cmd/frontier-bench" }

// classify names the layer a stack (leaf first) is charged to:
//   - garbage collection work, wherever it runs, is gc;
//   - otherwise the innermost frontiersim/internal frame decides, with the
//     standard library (and the rng/units helpers) charged to that caller,
//     except crypto/* and hash/* below it, which are hash;
//   - stacks with no simulator frame are the campaign server's HTTP
//     serving, the benchmark's own load generator, or other.
func classify(frames []string) string {
	for _, f := range frames {
		switch {
		case strings.HasPrefix(f, "runtime.gcBgMarkWorker"), strings.HasPrefix(f, "runtime.gcAssistAlloc"),
			strings.HasPrefix(f, "runtime.bgsweep"), strings.HasPrefix(f, "runtime.bgscavenge"),
			strings.HasPrefix(f, "runtime.gcStart"), strings.HasPrefix(f, "runtime.GC"):
			return "gc"
		}
	}
	hashed := false
	for i, f := range frames {
		pkg := pkgOf(f)
		if strings.HasPrefix(pkg, "crypto/") || strings.HasPrefix(pkg, "hash/") {
			hashed = true
			continue
		}
		sub, ok := strings.CutPrefix(pkg, "frontiersim/internal/")
		if !ok {
			continue
		}
		top, _, _ := strings.Cut(sub, "/")
		if top == "rng" || top == "units" {
			continue
		}
		if hashed {
			return "hash"
		}
		return internalLayer(top, frames[i:])
	}
	for _, f := range frames {
		switch pkg := pkgOf(f); {
		case strings.HasPrefix(f, "net/http.(*conn)."), strings.HasPrefix(f, "net/http.(*connReader)."):
			return "campaign"
		case isBenchPkg(pkg), strings.HasPrefix(f, "net/http.(*persistConn)."):
			return "loadgen"
		}
	}
	return "other"
}

// internalLayer maps the innermost simulator frame's package to a layer;
// stack starts at that frame.
func internalLayer(top string, stack []string) string {
	switch {
	case top == "network":
		if fn := stack[0]; strings.Contains(fn, "(*Solver).") || strings.HasSuffix(fn, "network.Solve") {
			return "network.solve"
		}
		return "network.other"
	case top == "fabric":
		for _, f := range stack {
			if buildMarkers[f] {
				return "fabric.build"
			}
		}
		return "fabric.paths"
	case models[top]:
		return "models"
	}
	for _, l := range layers {
		if l == top {
			return l
		}
	}
	return "other"
}
