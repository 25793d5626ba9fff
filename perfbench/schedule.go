package main

import (
	"math/rand"
	"sort"
	"time"
)

// event is one scheduled query of the open-loop traffic.
type event struct {
	at       time.Duration // send time, from the start of the measured interval
	class    string
	source   int64
	noCache  bool
	deadline time.Duration // 0: none
	dist     bool          // ask for, and check, the full distance vector
}

// traffic describes the serve-mixed arrival process.
type traffic struct {
	duration time.Duration

	// Interactive: Poisson arrivals at rate per second, sources drawn
	// Zipf(zipfS) over hotKeys (rank 0 hottest), each with a deadline.
	rate     float64
	zipfS    float64
	hotKeys  []int64
	deadline time.Duration

	// Bulk: every burstEvery, burstSize cache-bypassing queries whose
	// sources are taken in order from bulkKeys.
	burstEvery time.Duration
	burstSize  int
	bulkKeys   []int64

	// distEvery: on average one query in distEvery asks for its
	// distance vector.
	distEvery int
}

// bursts returns how many bulk bursts fall inside the duration.
func (t traffic) bursts() int {
	return int((t.duration + t.burstEvery - 1) / t.burstEvery)
}

// schedule generates the arrival schedule for seed, sorted by send
// time. The same seed and traffic give the same schedule.
func schedule(seed uint64, t traffic) []event {
	rng := rand.New(rand.NewSource(int64(seed)))
	zipf := rand.NewZipf(rng, t.zipfS, 1, uint64(len(t.hotKeys)-1))
	var evs []event
	for at := time.Duration(0); ; {
		at += time.Duration(rng.ExpFloat64() / t.rate * float64(time.Second))
		if at >= t.duration {
			break
		}
		evs = append(evs, event{at: at, class: "interactive",
			source: t.hotKeys[zipf.Uint64()], deadline: t.deadline})
	}
	next := 0
	for b := 0; b < t.bursts(); b++ {
		at := time.Duration(b) * t.burstEvery
		for i := 0; i < t.burstSize && next < len(t.bulkKeys); i++ {
			evs = append(evs, event{at: at, class: "batch", source: t.bulkKeys[next], noCache: true})
			next++
		}
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].at < evs[j].at })
	for i := range evs {
		evs[i].dist = rng.Intn(t.distEvery) == 0
	}
	return evs
}
