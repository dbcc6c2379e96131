package units

import (
	"math"
	"testing"
	"testing/quick"
)

func TestByteConstants(t *testing.T) {
	if GiB != 1<<30 {
		t.Errorf("GiB = %v, want %v", float64(GiB), 1<<30)
	}
	if GB != 1e9 {
		t.Errorf("GB = %v, want 1e9", float64(GB))
	}
	if PiB/TiB != 1024 {
		t.Errorf("PiB/TiB = %v, want 1024", PiB/TiB)
	}
	if PB/TB != 1000 {
		t.Errorf("PB/TB = %v, want 1000", PB/TB)
	}
}

func TestBytesString(t *testing.T) {
	cases := []struct {
		in   Bytes
		want string
	}{
		{0, "0B"},
		{512, "512B"},
		{1500, "1.50KB"},
		{4.6 * PB, "4.60PB"},
		{2 * EB, "2.00EB"},
		{-1500, "-1.50KB"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Bytes(%v).String() = %q, want %q", float64(c.in), got, c.want)
		}
	}
}

func TestBytesBinary(t *testing.T) {
	if got := (4 * GiB).Binary(); got != "4.00GiB" {
		t.Errorf("4GiB.Binary() = %q", got)
	}
	if got := (1536 * KiB).Binary(); got != "1.50MiB" {
		t.Errorf("1536KiB.Binary() = %q", got)
	}
}

func TestRateString(t *testing.T) {
	if got := (25 * GBps).String(); got != "25.0GB/s" {
		t.Errorf("25GBps = %q", got)
	}
	if got := (1.635 * TBps).String(); got != "1.64TB/s" {
		t.Errorf("1.635TBps = %q", got)
	}
}

func TestFlopsString(t *testing.T) {
	if got := (2 * ExaFlops).String(); got != "2.00EF/s" {
		t.Errorf("2EF = %q", got)
	}
	if got := (23.95 * TeraFlops).String(); got != "23.9TF/s" {
		t.Errorf("23.95TF = %q", got)
	}
}

func TestSecondsString(t *testing.T) {
	cases := []struct {
		in   Seconds
		want string
	}{
		{0, "0s"},
		{2.6 * Microsecond, "2.60us"},
		{180, "3.0min"},
		{4 * Hour, "4.0h"},
		{3 * Day, "3.0d"},
		{1.5 * Nanosecond, "1.5ns"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Seconds(%v).String() = %q, want %q", float64(c.in), got, c.want)
		}
	}
}

func TestWattsString(t *testing.T) {
	if got := (21.1 * Megawatt).String(); got != "21.1MW" {
		t.Errorf("21.1MW = %q", got)
	}
}

func TestPerAndTimeToMove(t *testing.T) {
	d := TimeToMove(100*GB, 25*GBps)
	if math.Abs(float64(d)-4) > 1e-12 {
		t.Errorf("TimeToMove = %v, want 4s", d)
	}
	if !math.IsInf(float64(TimeToMove(GB, 0)), 1) {
		t.Error("TimeToMove with zero rate should be +Inf")
	}
}

// Property: dividing bytes by their TimeToMove recovers the rate, for
// positive rates.
func TestRoundTripProperty(t *testing.T) {
	f := func(rawBytes, rawRate uint32) bool {
		b := Bytes(rawBytes%1e9 + 1)
		r := BytesPerSecond(rawRate%1e9 + 1)
		d := TimeToMove(b, r)
		got := float64(b) / float64(d)
		return math.Abs(got-float64(r))/float64(r) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: String never returns an empty string and always ends with a
// known suffix family member.
func TestStringNonEmptyProperty(t *testing.T) {
	f := func(v float64) bool {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
		return Bytes(v).String() != "" && BytesPerSecond(v).String() != ""
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
