package main

import (
	"math"
	"sort"
)

// minBeyond is the tail rule: a percentile is reported only when at
// least this many samples lie beyond it.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p <= 100)
// of values, the convention internal/graph500.Percentile uses. It
// returns 0 for no samples.
func percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s[nearestRank(len(s), p)-1]
}

// nearestRank is the 1-based rank of the p-th percentile among n
// sorted samples.
func nearestRank(n int, p float64) int {
	// The epsilon keeps binary rounding of p (99.9 is not exact) from
	// pushing an exact rank up by one.
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond counts the samples that lie strictly after the p-th
// percentile's rank among n samples.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - nearestRank(n, p)
}

// tailPercentiles are the candidate tail percentiles, highest first.
var tailPercentiles = []float64{99.9, 99, 90, 50}

// highestTail returns the highest candidate percentile that still has
// at least minBeyond samples beyond it among n samples, or 0 when even
// the median has too few.
func highestTail(n int) float64 {
	for _, p := range tailPercentiles {
		if beyond(n, p) >= minBeyond {
			return p
		}
	}
	return 0
}

// median returns the 50th percentile of values.
func median(values []float64) float64 { return percentile(values, 50) }

// hmean returns the harmonic mean of values, the Graph 500 TEPS
// average. It returns 0 when values is empty or holds a non-positive
// entry (a harmonic mean is undefined there).
func hmean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var inv float64
	for _, v := range values {
		if v <= 0 {
			return 0
		}
		inv += 1 / v
	}
	return float64(len(values)) / inv
}

// mean returns the arithmetic mean of values (0 when empty).
func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var s float64
	for _, v := range values {
		s += v
	}
	return s / float64(len(values))
}

// Outcome classes of one request. Every class except outcomeOK counts
// against fail_frac; a cached or coalesced answer that arrives in time
// and is correct is outcomeOK.
const (
	outcomeOK        = "ok"
	outcomeLate      = "late"       // correct, but after its deadline
	outcomeShed      = "shed"       // 504: refused because the deadline could not be met
	outcomeQueueFull = "queue_full" // 429
	outcomeError     = "error"      // any other non-200 status
	outcomeWrong     = "wrong"      // answered, but the oracle disagrees
)

// classify maps one request's observable result onto its outcome
// class. status is the HTTP status (200 for a library call that
// returned no error), wrong reports an oracle mismatch, and late
// reports an answer delivered after its deadline. A wrong answer is
// wrong whether or not it was late.
func classify(status int, wrong, late bool) string {
	switch {
	case status == 504:
		return outcomeShed
	case status == 429:
		return outcomeQueueFull
	case status != 200:
		return outcomeError
	case wrong:
		return outcomeWrong
	case late:
		return outcomeLate
	}
	return outcomeOK
}

// hardFailure reports whether an outcome produced no correct answer
// at all: the operations counted in the result line's "failed".
// Late answers are correct and count only in fail_frac.
func hardFailure(outcome string) bool {
	return outcome != outcomeOK && outcome != outcomeLate
}
