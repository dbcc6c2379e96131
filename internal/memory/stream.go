package memory

import (
	"fmt"

	"frontiersim/internal/units"
)

// StreamKernel describes one kernel of the STREAM benchmark family in
// terms of the array operands it touches per element. Word is the element
// size in bytes (8 for float64).
type StreamKernel struct {
	Name string
	// Reads and Writes are the number of array operands read and written
	// per element (the traffic STREAM itself counts).
	Reads, Writes int
	// StreamingStoreDetected marks kernels where the core's streaming
	// store heuristics elide the write-allocate read even for nominally
	// temporal stores. Zen 3 detects pure block copies (rep-movs style
	// patterns), which is why the paper's temporal Copy row (176.8 GB/s)
	// sits next to its non-temporal one while Scale/Add/Triad collapse.
	StreamingStoreDetected bool
	// ReadOnly marks reduction kernels (Dot) whose result stays in
	// registers: no store traffic at all.
	ReadOnly bool
}

// The classic CPU STREAM kernels (Table 3) plus the GPU variants the paper
// reports in Table 4 (Mul is GPU STREAM's name for Scale; Dot is a fused
// reduction).
var (
	Copy  = StreamKernel{Name: "Copy", Reads: 1, Writes: 1, StreamingStoreDetected: true}
	Scale = StreamKernel{Name: "Scale", Reads: 1, Writes: 1}
	Mul   = StreamKernel{Name: "Mul", Reads: 1, Writes: 1}
	Add   = StreamKernel{Name: "Add", Reads: 2, Writes: 1}
	Triad = StreamKernel{Name: "Triad", Reads: 2, Writes: 1}
	Dot   = StreamKernel{Name: "Dot", Reads: 2, Writes: 0, ReadOnly: true}
)

// CPUStreamKernels lists the kernels of Table 3 in paper order.
var CPUStreamKernels = []StreamKernel{Copy, Scale, Add, Triad}

// rfoPenalty is the residual inefficiency of read-for-ownership traffic
// beyond the pure extra-read bytes: the RFO read serialises ahead of the
// store and occupies fill buffers. Calibrated so that the model lands on
// the paper's Table 3 (Scale 107.3, Add 125.6, Triad 120.7 GB/s).
const rfoPenalty = 0.90

// CPUStreamBandwidth predicts the STREAM-reported bandwidth for kernel k
// on DRAM d. If temporal is true, stores go through the cache hierarchy
// and (absent streaming-store detection) incur a write-allocate read that
// STREAM does not count; non-temporal stores bypass the caches.
//
// The returned rate is the STREAM-counted rate, i.e. counted bytes per
// unit time, which is what the paper's Table 3 reports.
func CPUStreamBandwidth(d DRAM, k StreamKernel, temporal bool) units.BytesPerSecond {
	sustained := float64(d.Sustained())
	if !temporal || k.StreamingStoreDetected || k.Writes == 0 {
		return units.BytesPerSecond(sustained)
	}
	counted := float64(k.Reads + k.Writes)
	actual := counted + float64(k.Writes) // write-allocate: one extra read per write
	return units.BytesPerSecond(sustained * counted / actual * rfoPenalty)
}

// StreamResult is one measured STREAM row.
type StreamResult struct {
	Kernel    string
	Bandwidth units.BytesPerSecond
	// BestTime is the best per-iteration time over the trial count for
	// the configured array size, as real STREAM reports.
	BestTime units.Seconds
}

// String renders the row in STREAM's MB/s convention.
func (r StreamResult) String() string {
	return fmt.Sprintf("%-8s %12.1f MB/s  %10.6fs", r.Kernel, float64(r.Bandwidth)/1e6, float64(r.BestTime))
}

// RunCPUStream simulates a full CPU STREAM run: arrayBytes per operand
// array, the four classic kernels, temporal or non-temporal stores. The
// paper uses ~7.6 GB arrays so that data cannot fit in the 256 MiB of
// socket-level L3.
func RunCPUStream(d DRAM, arrayBytes units.Bytes, temporal bool) []StreamResult {
	results := make([]StreamResult, 0, len(CPUStreamKernels))
	for _, k := range CPUStreamKernels {
		bw := CPUStreamBandwidth(d, k, temporal)
		moved := arrayBytes * units.Bytes(k.Reads+k.Writes)
		results = append(results, StreamResult{
			Kernel:    k.Name,
			Bandwidth: bw,
			BestTime:  units.TimeToMove(moved, bw),
		})
	}
	return results
}

// GPU STREAM efficiencies by kernel class, calibrated to the paper's
// Table 4 (fractions of the 1.635 TB/s GCD peak). HBM has no
// write-allocate problem — GPU stores are streaming by construction — but
// three-operand kernels pay slightly more for read/write turnarounds, and
// the read-only Dot reduction achieves the best fraction of peak.
const (
	gpuEffTwoOp   = 0.8180 // Copy, Mul
	gpuEffThreeOp = 0.7875 // Add, Triad
	gpuEffDot     = 0.8405 // Dot
)

// GPUStreamBandwidth predicts the reported bandwidth of a GPU STREAM
// kernel against HBM h.
func GPUStreamBandwidth(h HBM, k StreamKernel) units.BytesPerSecond {
	peak := float64(h.Peak())
	switch {
	case k.ReadOnly:
		return units.BytesPerSecond(peak * gpuEffDot)
	case k.Reads+k.Writes >= 3:
		return units.BytesPerSecond(peak * gpuEffThreeOp)
	default:
		return units.BytesPerSecond(peak * gpuEffTwoOp)
	}
}

// GPUStreamKernels lists the kernels of Table 4 in paper order.
var GPUStreamKernels = []StreamKernel{Copy, Mul, Add, Triad, Dot}

// RunGPUStream simulates the GPU STREAM benchmark of Table 4 on one GCD.
func RunGPUStream(h HBM, arrayBytes units.Bytes) []StreamResult {
	results := make([]StreamResult, 0, len(GPUStreamKernels))
	for _, k := range GPUStreamKernels {
		bw := GPUStreamBandwidth(h, k)
		moved := arrayBytes * units.Bytes(k.Reads+k.Writes)
		results = append(results, StreamResult{
			Kernel:    k.Name,
			Bandwidth: bw,
			BestTime:  units.TimeToMove(moved, bw),
		})
	}
	return results
}
