package storage

import (
	"math"
	"testing"
	"testing/quick"

	"frontiersim/internal/units"
)

func tbps(r units.BytesPerSecond) float64 { return float64(r) / 1e12 }
func gbps(r units.BytesPerSecond) float64 { return float64(r) / 1e9 }

// §4.3.1: measured 7.1 GB/s reads, 4.2 GB/s writes, 1.58M IOPS per node.
func TestNodeLocalMeasured(t *testing.T) {
	s := NewNodeLocalStore()
	if got := gbps(s.SeqRead()); math.Abs(got-7.1) > 0.05 {
		t.Errorf("seq read = %.2f GB/s, want 7.1", got)
	}
	if got := gbps(s.SeqWrite()); math.Abs(got-4.2) > 0.05 {
		t.Errorf("seq write = %.2f GB/s, want 4.2", got)
	}
	if got := s.RandReadIOPS() / 1e6; math.Abs(got-1.58) > 0.01 {
		t.Errorf("IOPS = %.2fM, want 1.58M", got)
	}
	if got := float64(s.Capacity()) / 1e12; math.Abs(got-3.5) > 0.01 {
		t.Errorf("capacity = %.2f TB, want 3.5", got)
	}
}

// §4.3.1: full-machine aggregates: 67.3 TB/s, 39.8 TB/s, ~15 B IOPS.
func TestNodeLocalAggregate(t *testing.T) {
	agg := NewNodeLocalStore().Aggregate(9472)
	if got := tbps(agg.Read); math.Abs(got-67.3) > 0.5 {
		t.Errorf("aggregate read = %.1f TB/s, want 67.3", got)
	}
	if got := tbps(agg.Write); math.Abs(got-39.8) > 0.4 {
		t.Errorf("aggregate write = %.1f TB/s, want 39.8", got)
	}
	if got := agg.IOPS / 1e9; math.Abs(got-15.0) > 0.2 {
		t.Errorf("aggregate IOPS = %.1fB, want ~15", got)
	}
	if got := float64(agg.Capacity) / 1e15; math.Abs(got-33.2) > 0.5 {
		t.Errorf("aggregate capacity = %.1f PB, want ~33", got)
	}
}

func TestRunFio(t *testing.T) {
	s := NewNodeLocalStore()
	r := s.RunFio(FioSeqRead, 100*units.GB)
	if r.Duration <= 0 || gbps(r.Bandwidth) < 7 {
		t.Errorf("fio seq read broken: %+v", r)
	}
	w := s.RunFio(FioSeqWrite, 100*units.GB)
	if w.Duration <= r.Duration {
		t.Error("write should take longer than read")
	}
	io := s.RunFio(FioRandRead4k, units.GB)
	if io.IOPS < 1.5e6 {
		t.Errorf("fio IOPS = %.0f, want ~1.58M", io.IOPS)
	}
	for _, p := range []FioPattern{FioSeqRead, FioSeqWrite, FioRandRead4k, FioPattern(9)} {
		if p.String() == "" {
			t.Error("empty pattern name")
		}
	}
}

func TestDRAIDGeometry(t *testing.T) {
	g := FrontierSSU().Disk
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DRAIDGroup{Data: 30, Parity: 2, Spares: 0, Drives: 24}
	if err := bad.Validate(); err == nil {
		t.Error("oversized stripe should fail validation")
	}
}

// Property: usable capacity never exceeds raw and efficiency is in (0,1].
func TestDRAIDEfficiencyProperty(t *testing.T) {
	f := func(d, p, s uint8) bool {
		g := DRAIDGroup{
			Data: int(d%16) + 1, Parity: int(p % 4), Spares: int(s % 4),
			DriveCapacity: 18 * units.TB, DriveBW: 117 * units.MBps,
		}
		g.Drives = g.Data + g.Parity + g.Spares + 4
		if g.Validate() != nil {
			return true
		}
		eff := g.Efficiency()
		return eff > 0 && eff <= 1 && g.UsableCapacity() <= units.Bytes(g.Drives)*g.DriveCapacity
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Table 2: tier capacities and bandwidths.
func TestOrionTable2(t *testing.T) {
	o := NewOrion()
	perf := o.Tiers[PerformanceTier]
	if got := float64(perf.Capacity) / 1e15; math.Abs(got-11.5) > 0.2 {
		t.Errorf("performance capacity = %.1f PB, want 11.5", got)
	}
	capT := o.Tiers[CapacityTier]
	if got := float64(capT.Capacity) / 1e15; math.Abs(got-679) > 10 {
		t.Errorf("capacity tier = %.0f PB, want 679", got)
	}
	if got := tbps(capT.Read); math.Abs(got-5.5) > 0.2 {
		t.Errorf("capacity read = %.2f TB/s, want 5.5", got)
	}
	if got := tbps(capT.Write); math.Abs(got-4.6) > 0.25 {
		t.Errorf("capacity write = %.2f TB/s, want 4.6", got)
	}
	md := o.Tiers[MetadataTier]
	if got := float64(md.Capacity) / 1e15; got != 10 {
		t.Errorf("metadata capacity = %.1f PB, want 10", got)
	}
}

// §4.3.2: measured streaming rates.
func TestOrionMeasuredRates(t *testing.T) {
	o := NewOrion()
	// Small files (within the flash tier).
	smallRead := o.StreamBandwidth(8*units.MB, false)
	if got := tbps(smallRead); math.Abs(got-11.7) > 0.6 {
		t.Errorf("flash-resident read = %.1f TB/s, want 11.7", got)
	}
	smallWrite := o.StreamBandwidth(8*units.MB, true)
	if got := tbps(smallWrite); math.Abs(got-9.4) > 0.5 {
		t.Errorf("flash-resident write = %.1f TB/s, want 9.4", got)
	}
	// Large files (capacity tier dominated).
	bigRead := o.StreamBandwidth(100*units.GB, false)
	if got := tbps(bigRead); math.Abs(got-4.9) > 0.3 {
		t.Errorf("large-file read = %.1f TB/s, want 4.9", got)
	}
	bigWrite := o.StreamBandwidth(100*units.GB, true)
	if got := tbps(bigWrite); math.Abs(got-4.3) > 0.3 {
		t.Errorf("large-file write = %.1f TB/s, want 4.3", got)
	}
}

// §4.3.2: ~700 TiB ingested in ~180 s.
func TestOrionIngest(t *testing.T) {
	o := NewOrion()
	d := o.IngestTime(700 * units.TiB)
	if float64(d) < 150 || float64(d) > 210 {
		t.Errorf("ingest time = %v, want ~180 s", d)
	}
}

func TestPFLSplit(t *testing.T) {
	o := NewOrion()
	// Tiny file: all DoM.
	dom, perf, capT := o.SplitFile(100 * units.KB)
	if dom != 100*units.KB || perf != 0 || capT != 0 {
		t.Errorf("tiny split = %v/%v/%v", dom, perf, capT)
	}
	// Mid file: DoM + performance.
	dom, perf, capT = o.SplitFile(1 * units.MB)
	if dom != 256*units.KB || perf != 1*units.MB-256*units.KB || capT != 0 {
		t.Errorf("mid split = %v/%v/%v", dom, perf, capT)
	}
	// Large file: all three.
	dom, perf, capT = o.SplitFile(100 * units.MB)
	if dom != 256*units.KB || perf != 8*units.MB-256*units.KB || capT != 92*units.MB {
		t.Errorf("large split = %v/%v/%v", dom, perf, capT)
	}
	if d, p, c := o.SplitFile(0); d+p+c != 0 {
		t.Error("empty file splits to zero")
	}
}

// Property: the PFL split conserves bytes and respects tier boundaries.
func TestPFLConservationProperty(t *testing.T) {
	o := NewOrion()
	f := func(raw uint32) bool {
		size := units.Bytes(raw)
		dom, perf, capT := o.SplitFile(size)
		if dom+perf+capT != size {
			return false
		}
		return dom <= o.DoMLimit && dom+perf <= o.PFLPerformanceLimit || size <= o.DoMLimit
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// The tier a byte offset lands in is the last tier SplitFile fills for
// a file that ends at that byte.
func TestTierFor(t *testing.T) {
	o := NewOrion()
	tierOf := func(offset units.Bytes) TierKind {
		dom, perf, capT := o.SplitFile(offset + 1)
		switch {
		case capT > 0:
			return CapacityTier
		case perf > 0:
			return PerformanceTier
		case dom > 0:
			return MetadataTier
		}
		return TierKind(-1)
	}
	if tierOf(0) != MetadataTier {
		t.Error("offset 0 should be DoM")
	}
	if tierOf(units.MB) != PerformanceTier {
		t.Error("1 MB offset should be performance")
	}
	if tierOf(units.GB) != CapacityTier {
		t.Error("1 GB offset should be capacity")
	}
	for _, k := range []TierKind{MetadataTier, PerformanceTier, CapacityTier, TierKind(7)} {
		if k.String() == "" {
			t.Error("empty tier name")
		}
	}
}

func TestSSUNetworkLimit(t *testing.T) {
	s := FrontierSSU()
	// Two controllers with two 25 GB/s NICs each: a 100 GB/s ceiling.
	if got := gbps(units.BytesPerSecond(s.Controllers*s.NICsPerCtrl) * s.NICRate); got != 100 {
		t.Errorf("SSU NIC limit = %.0f GB/s, want 100", got)
	}
	if o := NewOrion(); o.String() == "" {
		t.Error("empty Orion string")
	}
}
