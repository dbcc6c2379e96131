package main

import (
	"bufio"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// quantile returns the p-quantile (0 < p < 1) of xs by the "exclusive"
// method of Python's statistics.quantiles, so the medians and quartiles
// printed here are the ones an acceptance check computes from the same
// values. xs need not be sorted; it is not modified.
func quantile(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := p * float64(n+1)
	switch {
	case h <= 1:
		return s[0]
	case h >= float64(n):
		return s[n-1]
	}
	lo := int(h)
	return s[lo-1] + (h-float64(lo))*(s[lo]-s[lo-1])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailPerMille is the highest percentile of the ladder, in per mille, with
// at least ten of n samples beyond it — the tail a timing is reported at.
// It is 0 when n < 20 leaves no percentile above the median that qualifies
// and the median itself has fewer than ten samples beyond it.
func tailPerMille(n int) int {
	for _, pm := range []int{999, 990, 950, 900, 750, 500} {
		if n*(1000-pm) >= 10*1000 {
			return pm
		}
	}
	return 0
}

// gcLine matches the heap sizes of a GODEBUG=gctrace=1 line:
// "gc 7 @0.31s 4%: ... ms cpu, 180->182->95 MB, 190 MB goal, ...". The
// third number is the live heap the collection left behind.
var gcLine = regexp.MustCompile(`^gc \d+ @.* (\d+)->(\d+)->(\d+) MB`)

// gcLiveMB returns the live heap a gctrace line reports, in MB.
func gcLiveMB(line string) (float64, bool) {
	m := gcLine.FindStringSubmatch(line)
	if m == nil {
		return 0, false
	}
	v, err := strconv.ParseFloat(m[3], 64)
	return v, err == nil
}

// meanLive accumulates the live heap of each collection in a child's
// gctrace output.
type meanLive struct {
	sum float64
	n   int
}

func (m *meanLive) add(line string) bool {
	v, ok := gcLiveMB(line)
	if ok {
		m.sum += v
		m.n++
	}
	return ok
}

// mb is the mean live heap over the collections seen, in MB (0 if none).
func (m meanLive) mb() float64 {
	if m.n == 0 {
		return 0
	}
	return m.sum / float64(m.n)
}

// meanLiveMB returns the mean, over every collection in a child's gctrace
// output, of the live heap the collection left behind. The peak of those
// values would be the natural memory metric, but it depends on how much
// the program allocated while a collection was marking: over six identical
// census invocations on a 2-vCPU VM its coefficient of variation was 12%,
// the mean's 3%.
func meanLiveMB(stderr string) float64 {
	var m meanLive
	sc := bufio.NewScanner(strings.NewReader(stderr))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		m.add(sc.Text())
	}
	return m.mb()
}
