// Package units provides the physical quantities used throughout the
// simulator: byte counts, data rates, FLOP rates, and durations, together
// with parsing and human-readable formatting.
//
// Two families of byte units coexist in HPC specifications and in the
// Frontier paper itself: binary (KiB = 1024 B) and decimal (KB = 1000 B).
// Both are provided; code should use the one the original specification
// used so that reproduced tables carry the paper's own numbers.
package units

import (
	"fmt"
	"math"
)

// Bytes is a byte count. It is a float64 so that aggregate capacities
// (hundreds of petabytes) and fractional accounting (striped writes) do not
// overflow or truncate.
type Bytes float64

// Binary (IEC) byte units.
const (
	KiB Bytes = 1 << 10
	MiB Bytes = 1 << 20
	GiB Bytes = 1 << 30
	TiB Bytes = 1 << 40
	PiB Bytes = 1 << 50
	EiB Bytes = 1 << 60
)

// Decimal (SI) byte units.
const (
	KB Bytes = 1e3
	MB Bytes = 1e6
	GB Bytes = 1e9
	TB Bytes = 1e12
	PB Bytes = 1e15
	EB Bytes = 1e18
)

// String formats b using decimal units, which is how the paper reports
// most capacities and rates.
func (b Bytes) String() string {
	return formatScaled(float64(b), 1000, []string{"B", "KB", "MB", "GB", "TB", "PB", "EB"})
}

// Binary formats b using binary (IEC) units.
func (b Bytes) Binary() string {
	return formatScaled(float64(b), 1024, []string{"B", "KiB", "MiB", "GiB", "TiB", "PiB", "EiB"})
}

// BytesPerSecond is a data rate.
type BytesPerSecond float64

// Common data rates.
const (
	KBps BytesPerSecond = 1e3
	MBps BytesPerSecond = 1e6
	GBps BytesPerSecond = 1e9
	TBps BytesPerSecond = 1e12
	PBps BytesPerSecond = 1e15
)

// String formats r in decimal units per second.
func (r BytesPerSecond) String() string {
	return formatScaled(float64(r), 1000, []string{"B/s", "KB/s", "MB/s", "GB/s", "TB/s", "PB/s", "EB/s"})
}

// Flops is a floating-point operation rate (operations per second).
type Flops float64

// Common FLOP rates.
const (
	MegaFlops Flops = 1e6
	GigaFlops Flops = 1e9
	TeraFlops Flops = 1e12
	PetaFlops Flops = 1e15
	ExaFlops  Flops = 1e18
)

// String formats f with an appropriate SI prefix.
func (f Flops) String() string {
	return formatScaled(float64(f), 1000, []string{"F/s", "KF/s", "MF/s", "GF/s", "TF/s", "PF/s", "EF/s"})
}

// Seconds is a duration in seconds. The simulator uses float64 seconds as
// its native time base: event horizons span from nanosecond network hops to
// year-long reliability runs, a range a single float64 covers with ample
// precision.
type Seconds float64

// Common durations.
const (
	Nanosecond  Seconds = 1e-9
	Microsecond Seconds = 1e-6
	Millisecond Seconds = 1e-3
	Second      Seconds = 1
	Minute      Seconds = 60
	Hour        Seconds = 3600
	Day         Seconds = 86400
	Year        Seconds = 365.25 * 86400
)

// String formats d with a unit chosen by magnitude.
func (d Seconds) String() string {
	ad := math.Abs(float64(d))
	switch {
	case ad == 0:
		return "0s"
	case ad < 1e-6:
		return fmt.Sprintf("%.1fns", float64(d)*1e9)
	case ad < 1e-3:
		return fmt.Sprintf("%.2fus", float64(d)*1e6)
	case ad < 1:
		return fmt.Sprintf("%.2fms", float64(d)*1e3)
	case ad < 120:
		return fmt.Sprintf("%.2fs", float64(d))
	case ad < 2*3600:
		return fmt.Sprintf("%.1fmin", float64(d)/60)
	case ad < 2*86400:
		return fmt.Sprintf("%.1fh", float64(d)/3600)
	default:
		return fmt.Sprintf("%.1fd", float64(d)/86400)
	}
}

// Watts is electrical power.
type Watts float64

// Common power units.
const (
	Kilowatt Watts = 1e3
	Megawatt Watts = 1e6
)

// String formats w with an appropriate SI prefix.
func (w Watts) String() string {
	return formatScaled(float64(w), 1000, []string{"W", "kW", "MW", "GW"})
}

// TimeToMove reports how long moving b bytes at rate r takes.
func TimeToMove(b Bytes, r BytesPerSecond) Seconds {
	if r <= 0 {
		return Seconds(math.Inf(1))
	}
	return Seconds(float64(b) / float64(r))
}

func formatScaled(v, base float64, suffixes []string) string {
	neg := ""
	if v < 0 {
		neg = "-"
		v = -v
	}
	i := 0
	for v >= base && i < len(suffixes)-1 {
		v /= base
		i++
	}
	switch {
	case v == 0:
		return "0" + suffixes[0]
	case v < 10:
		return fmt.Sprintf("%s%.2f%s", neg, v, suffixes[i])
	case v < 100:
		return fmt.Sprintf("%s%.1f%s", neg, v, suffixes[i])
	default:
		return fmt.Sprintf("%s%.0f%s", neg, v, suffixes[i])
	}
}
