package main

import (
	"math"
	"net/http"
	"testing"
	"time"

	"repro/internal/serve"
)

func TestPercentileNearestRank(t *testing.T) {
	values := make([]float64, 100)
	for i := range values {
		values[i] = float64(100 - i) // unsorted on purpose: 100..1
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0.1, 1}} {
		if got := percentile(values, c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %g, want 0", got)
	}
}

func TestTailRuleNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99},
		{9999, 99}, {10000, 99.9},
	} {
		if got := highestTail(c.n); got != c.want {
			t.Errorf("highestTail(%d) = p%g, want p%g", c.n, got, c.want)
		}
		if c.want > 0 && beyond(c.n, c.want) < minBeyond {
			t.Errorf("n=%d: only %d samples beyond p%g", c.n, beyond(c.n, c.want), c.want)
		}
	}
	// The rule is tight: one sample fewer drops to the next percentile.
	if beyond(1000, 99) != 10 || beyond(999, 99) != 9 {
		t.Errorf("beyond(1000, 99)=%d beyond(999, 99)=%d, want 10 and 9", beyond(1000, 99), beyond(999, 99))
	}
}

func TestHarmonicMean(t *testing.T) {
	if got := hmean([]float64{1, 2, 4}); math.Abs(got-12.0/7) > 1e-12 {
		t.Errorf("hmean(1,2,4) = %g, want 12/7", got)
	}
	if got := hmean([]float64{5, 5, 5}); math.Abs(got-5) > 1e-12 {
		t.Errorf("hmean of equal values = %g, want 5", got)
	}
	for _, bad := range [][]float64{nil, {1, 0}, {2, -1}} {
		if got := hmean(bad); got != 0 {
			t.Errorf("hmean(%v) = %g, want 0", bad, got)
		}
	}
}

func TestClassify(t *testing.T) {
	for _, c := range []struct {
		status      int
		wrong, late bool
		want        string
		hard        bool
	}{
		{200, false, false, outcomeOK, false},
		{200, false, true, outcomeLate, false},
		{200, true, false, outcomeWrong, true},
		{200, true, true, outcomeWrong, true},
		{504, false, false, outcomeShed, true},
		{429, false, false, outcomeQueueFull, true},
		{500, false, false, outcomeError, true},
		{-1, false, false, outcomeError, true},
	} {
		got := classify(c.status, c.wrong, c.late)
		if got != c.want || hardFailure(got) != c.hard {
			t.Errorf("classify(%d, wrong=%v, late=%v) = %s (hard %v), want %s (hard %v)",
				c.status, c.wrong, c.late, got, hardFailure(got), c.want, c.hard)
		}
	}
}

func TestOutcomeOfServedAnswers(t *testing.T) {
	o := oracle{levels: 5, reached: 100, traversed: 900, dist: []uint16{0, 1, unreached16}}
	sent := time.Unix(0, 0)
	resp := serve.QueryResponse{Source: 7, Levels: 5, Reached: 100, TraversedEdges: 900}
	interactive := event{source: 7, deadline: 25 * time.Millisecond}
	for _, c := range []struct {
		name string
		ev   event
		a    answer
		want string
	}{
		{"on time", interactive, answer{sent: sent, done: sent.Add(24 * time.Millisecond), status: 200, resp: resp}, outcomeOK},
		{"late counts as failed", interactive, answer{sent: sent, done: sent.Add(26 * time.Millisecond), status: 200, resp: resp}, outcomeLate},
		{"cached on time is ok", interactive, answer{sent: sent, done: sent.Add(time.Millisecond), status: 200,
			resp: func() serve.QueryResponse { r := resp; r.Cached = true; return r }()}, outcomeOK},
		{"no deadline is never late", event{source: 7}, answer{sent: sent, done: sent.Add(time.Second), status: 200, resp: resp}, outcomeOK},
		{"wrong levels", interactive, answer{sent: sent, done: sent, status: 200,
			resp: func() serve.QueryResponse { r := resp; r.Levels = 6; return r }()}, outcomeWrong},
		{"wrong dist", event{source: 7, dist: true}, answer{sent: sent, done: sent, status: 200,
			resp: func() serve.QueryResponse { r := resp; r.Dist = []int64{0, 2, -1}; return r }()}, outcomeWrong},
		{"right dist", event{source: 7, dist: true}, answer{sent: sent, done: sent, status: 200,
			resp: func() serve.QueryResponse { r := resp; r.Dist = []int64{0, 1, -1}; return r }()}, outcomeOK},
		{"shed", interactive, answer{sent: sent, done: sent, status: http.StatusGatewayTimeout}, outcomeShed},
	} {
		if got := outcomeOf(c.ev, c.a, o); got != c.want {
			t.Errorf("%s: outcome %s, want %s", c.name, got, c.want)
		}
	}
}
