package main

import (
	"reflect"
	"testing"
)

func testTraffic() traffic {
	tr := serveTraffic(4)
	for i := int64(0); i < 64; i++ {
		tr.hotKeys = append(tr.hotKeys, 1000+i)
	}
	for i := 0; i < tr.bursts()*tr.burstSize; i++ {
		tr.bulkKeys = append(tr.bulkKeys, int64(i))
	}
	return tr
}

func TestScheduleIsSeeded(t *testing.T) {
	tr := testTraffic()
	a, b := schedule(7, tr), schedule(7, tr)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two schedules from one seed differ")
	}
	if c := schedule(8, tr); reflect.DeepEqual(a, c) {
		t.Fatal("schedules from seeds 7 and 8 are identical")
	}
}

func TestScheduleShape(t *testing.T) {
	tr := testTraffic()
	evs := schedule(3, tr)
	var interactive, bulk, dist int
	for i, ev := range evs {
		if i > 0 && ev.at < evs[i-1].at {
			t.Fatalf("event %d at %v precedes event %d at %v", i, ev.at, i-1, evs[i-1].at)
		}
		if ev.at < 0 || ev.at >= tr.duration {
			t.Fatalf("event %d at %v outside [0, %v)", i, ev.at, tr.duration)
		}
		switch ev.class {
		case "interactive":
			interactive++
			if ev.deadline != tr.deadline || ev.deadline == 0 || ev.noCache {
				t.Fatalf("interactive event %+v: want a %v deadline and the cache", ev, tr.deadline)
			}
		case "batch":
			bulk++
			if ev.deadline != 0 || !ev.noCache || ev.at%tr.burstEvery != 0 {
				t.Fatalf("bulk event %+v: want no deadline, no_cache, burst-aligned time", ev)
			}
		default:
			t.Fatalf("unknown class %q", ev.class)
		}
		if ev.dist {
			dist++
		}
	}
	if want := tr.bursts() * tr.burstSize; bulk != want {
		t.Errorf("%d bulk events, want %d", bulk, want)
	}
	// Poisson: rate × duration expected; allow five standard deviations.
	want := tr.rate * tr.duration.Seconds()
	if d := float64(interactive) - want; d*d > 25*want {
		t.Errorf("%d interactive events in %v at %v/s, want about %.0f", interactive, tr.duration, tr.rate, want)
	}
	if dist == 0 || dist > len(evs)/8 {
		t.Errorf("%d of %d events ask for distances, want about 1 in %d", dist, len(evs), tr.distEvery)
	}
}
