package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"repro"
	"repro/internal/serve"
)

// serveOptions is the engine configuration bfsserve uses by default.
var serveOptions = pbfs.Options{Algorithm: pbfs.OneDFlat, Ranks: ranks, Machine: "franklin"}

// serveConfig mirrors bfsserve's default knobs for one graph.
func serveConfig(g *pbfs.Graph) (serve.Config, error) {
	policy, err := serve.ParsePolicy("slack", 10*time.Millisecond)
	if err != nil {
		return serve.Config{}, err
	}
	return serve.Config{
		Graphs:   []serve.GraphConfig{{ID: "default", Graph: g, Options: serveOptions}},
		BatchMax: pbfs.BatchWidth, MaxWait: 2 * time.Millisecond, QueueDepth: 1024,
		Policy: policy, Sessions: 2, CacheSize: serve.DefaultCacheSize,
	}, nil
}

// serveTraffic is the serve-mixed arrival process without its keys.
// The interactive deadline still orders interactive queries ahead of
// bulk under the slack policy and passes through deadline admission,
// but it is long enough that no query is shed or late: a deadline near
// the service time makes the shed count depend on the host's
// scheduling, so runs of the same code would fail different numbers of
// queries. The load is light enough that queueing does not multiply a
// change in host speed, and bulk comes in small, frequent bursts so a
// run sees many independent batches.
func serveTraffic(seconds int) traffic {
	return traffic{
		duration: time.Duration(seconds) * time.Second,
		rate:     50, zipfS: 1.1, deadline: time.Second,
		burstEvery: 125 * time.Millisecond, burstSize: 8,
		distEvery: 64,
	}
}

const hotKeyCount = 1024

// answer is what the load generator observed for one event.
type answer struct {
	sent, done time.Time
	status     int
	resp       serve.QueryResponse
}

// runServe runs serve-mixed: open-loop traffic into bfsserve's HTTP
// handler, called in memory.
func runServe(cfg config, tr *tracer, rep *report) error {
	if cfg.trace {
		el, err := buildLayers(tr, rep, false, cfg.seed)
		if err != nil {
			return err
		}
		drv, d, err := newDriver(tr, 0, el, serveOptions)
		if err != nil {
			return err
		}
		drv.stop()
		rep.set("bfs1d.distribute_s", d.Seconds(), "s")
	}

	// Set-up: graph generation and CSR build, then serve.New, which
	// warms every pooled session (each builds its engine). Key
	// selection and schedule generation are not timed.
	reps := setupReps
	if cfg.trace {
		reps = 1
	}
	var (
		g      *pbfs.Graph
		srv    *serve.Server
		sched  []event
		setups []float64
	)
	ts := serveTraffic(cfg.seconds)
	for i := 0; i < reps; i++ {
		if srv != nil {
			srv.Shutdown()
		}
		g, srv = nil, nil
		runtime.GC()
		buildD, err := timed(tr, "pbfs.new_graph", 0, -1, func() (err error) {
			g, err = newGraph(false, cfg.seed)
			return err
		})
		if err != nil {
			return err
		}
		ts.hotKeys = g.Sources(hotKeyCount, cfg.seed)
		ts.bulkKeys = g.Sources(ts.bursts()*ts.burstSize, cfg.seed+1)
		sched = schedule(cfg.seed, ts)
		sc, err := serveConfig(g)
		if err != nil {
			return err
		}
		newD, err := timed(tr, "serve.new", 0, -1, func() (err error) {
			srv, err = serve.New(sc)
			return err
		})
		if err != nil {
			return err
		}
		rep.set("serve.new_s", newD.Seconds(), "s")
		setups = append(setups, (buildD + newD).Seconds())
	}

	runtime.GC() // start from a heap without the earlier set-ups' garbage
	loop := tr.begin("loadgen", 0, -1)
	answers, start, lag := generate(tr, loop, srv.Handler(), sched)
	loopD := time.Since(start)
	tr.end(loop)
	var snap serve.Snapshot
	id := tr.begin("serve.metrics", 0, -1)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/metrics", nil))
	tr.end(id)
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		return fmt.Errorf("decode /v1/metrics: %w", err)
	}
	id = tr.begin("serve.shutdown", 0, -1)
	srv.Shutdown()
	tr.end(id)

	oracles, err := serveOracles(tr, g, sched, answers)
	if err != nil {
		return err
	}
	reportServe(cfg, rep, sched, answers, oracles, start, lag, snap)
	if !cfg.trace {
		rep.set("setup_s", median(setups), "s")
		return nil
	}
	reportTraceOverhead(tr, rep, loop, loopD)
	return probeServeEngine(tr, rep, g, ts.hotKeys)
}

// generate runs the open loop: one goroutine walks the schedule and
// hands each query to the handler at its send time on a goroutine of
// its own, as the HTTP server would, without waiting for earlier
// answers. It returns once every answer is in, with the loop's start
// and each query's send lag behind its schedule.
func generate(tr *tracer, loop int, h http.Handler, sched []event) ([]answer, time.Time, []float64) {
	answers := make([]answer, len(sched))
	lag := make([]float64, len(sched))
	var wg sync.WaitGroup
	start := time.Now()
	for i, ev := range sched {
		body, _ := json.Marshal(serve.QueryRequest{Source: ev.source, Class: ev.class,
			DeadlineMs: ev.deadline.Milliseconds(), NoCache: ev.noCache, Dist: ev.dist})
		req := httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body))
		if wait := time.Until(start.Add(ev.at)); wait > 0 {
			time.Sleep(wait)
		}
		sent := time.Now()
		lag[i] = ms(sent.Sub(start.Add(ev.at)))
		wg.Add(1)
		go func(i int, req *http.Request) {
			defer wg.Done()
			id := tr.begin("serve.http", loop, int64(i))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			a := answer{sent: sent, done: time.Now(), status: rec.Code}
			tr.end(id)
			if a.status == http.StatusOK {
				if err := json.Unmarshal(rec.Body.Bytes(), &a.resp); err != nil {
					a.status = -1
				}
			}
			answers[i] = a
		}(i, req)
	}
	wg.Wait()
	return answers, start, lag
}

// serveOracles computes the serial answer for every distinct source
// that was answered, keeping distances for the sources whose query
// asked for them. Two workers share the sources.
func serveOracles(tr *tracer, g *pbfs.Graph, sched []event, answers []answer) (map[int64]oracle, error) {
	id := tr.begin("check.oracle", 0, -1)
	defer tr.end(id)
	keepDist := make(map[int64]bool)
	for i, ev := range sched {
		if answers[i].status == http.StatusOK {
			keepDist[ev.source] = keepDist[ev.source] || ev.dist
		}
	}
	sources := make(chan int64)
	out := make(map[int64]oracle, len(keepDist))
	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for src := range sources {
				o, err := newOracle(g, src, keepDist[src])
				mu.Lock()
				out[src] = o
				if err != nil && firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}()
	}
	for src := range keepDist {
		sources <- src
	}
	close(sources)
	wg.Wait()
	return out, firstErr
}

// outcomeOf checks one answer against its oracle and classifies it.
// Late means the handler returned more than the deadline after it was
// called, the instant the server's Query.Deadline is taken from.
// Whether the answer came from the cache plays no part.
func outcomeOf(ev event, a answer, o oracle) string {
	r := a.resp
	wrong := a.status == http.StatusOK && (r.Source != ev.source || r.Levels != o.levels ||
		r.Reached != o.reached || r.TraversedEdges != o.traversed || (ev.dist && !o.matches(r.Dist)))
	late := ev.deadline > 0 && a.done.Sub(a.sent) > ev.deadline
	return classify(a.status, wrong, late)
}

// reportServe classifies every answer and sets the serve-mixed
// figures.
func reportServe(cfg config, rep *report, sched []event, answers []answer,
	oracles map[int64]oracle, start time.Time, lag []float64, snap serve.Snapshot) {
	outcomes := make(map[string]int)
	var (
		lat, teps, simTEPS                         []float64
		waitMs, afterMs, cachedMs, interMs, bulkMs []float64
		cached, coalesced, interServed             int
	)
	for i, ev := range sched {
		a := answers[i]
		latency := a.done.Sub(start.Add(ev.at))
		outcomes[outcomeOf(ev, a, oracles[ev.source])]++
		if a.status == http.StatusOK {
			r := a.resp
			lat = append(lat, ms(latency))
			teps = append(teps, float64(r.TraversedEdges)/latency.Seconds())
			if !r.Cached && !r.Coalesced {
				// A cache hit or a rider reuses a plane another answer
				// traversed for; counting its simulated TEPS again would
				// weight hot sources by their popularity.
				simTEPS = append(simTEPS, r.TEPS)
			}
			if r.Cached {
				cached++
				cachedMs = append(cachedMs, ms(a.done.Sub(a.sent)))
			} else {
				wait := float64(r.QueueWaitNs) / 1e6
				waitMs = append(waitMs, wait)
				afterMs = append(afterMs, ms(latency)-wait)
			}
			if r.Coalesced {
				coalesced++
			}
			if ev.class == "interactive" {
				interServed++
				interMs = append(interMs, ms(latency))
			} else {
				bulkMs = append(bulkMs, ms(latency))
			}
		}
	}
	setOutcomes(rep, outcomes)
	sent := float64(len(sched))
	rep.set("serve.sent", sent, "count")
	rep.set("serve.served", float64(len(lat)), "count")
	rep.set("serve.cached", float64(cached), "count")
	rep.set("serve.coalesced", float64(coalesced), "count")
	rep.set("serve.late", float64(outcomes[outcomeLate]), "count")
	rep.set("serve.shed", float64(outcomes[outcomeShed]), "count")
	rep.set("serve.queue_full", float64(outcomes[outcomeQueueFull]), "count")
	rep.set("serve.errors", float64(outcomes[outcomeError]), "count")
	rep.set("serve.late_frac", float64(outcomes[outcomeLate])/sent, "ratio")
	rep.set("serve.shed_frac", float64(outcomes[outcomeShed])/sent, "ratio")
	rep.set("serve.queue_full_frac", float64(outcomes[outcomeQueueFull])/sent, "ratio")
	rep.set("serve.error_frac", float64(outcomes[outcomeError])/sent, "ratio")
	rep.set("loadgen.lag_p99_ms", percentile(lag, 99), "ms")

	p50 := percentile(lat, 50)
	if !cfg.trace {
		// p99 qualifies by sample count, but its run-to-run spread on a
		// shared 2-CPU host exceeds the largest bound a gated metric may
		// have, so it is printed and the gate uses p90.
		setLatency(rep, lat)
		rep.set("latency_p99_ms", percentile(lat, 99), "ms")
		rep.set("teps_hmean", hmean(teps), "edges/s")
		rep.set("sim_teps_hmean", hmean(simTEPS), "edges/s")
		return
	}
	rep.set("trace.latency_p50_ms", p50, "ms")
	rep.set("serve.queue_wait_p50_ms", percentile(waitMs, 50), "ms")
	rep.set("serve.queue_wait_p99_ms", percentile(waitMs, 99), "ms")
	rep.set("serve.after_dispatch_p50_ms", percentile(afterMs, 50), "ms")
	rep.set("serve.cached_p50_ms", percentile(cachedMs, 50), "ms")
	rep.set("serve.interactive_p99_ms", percentile(interMs, 99), "ms")
	rep.set("serve.bulk_p50_ms", percentile(bulkMs, 50), "ms")
	if interServed > 0 {
		rep.set("serve.cache_hit_rate", float64(cached)/float64(interServed), "ratio")
	}
	if len(lat) > 0 {
		rep.set("serve.coalesced_frac", float64(coalesced)/float64(len(lat)), "ratio")
	}
	for _, gs := range snap.Graphs {
		rep.set("serve.occupancy_mean", gs.MeanOccupancy, "queries")
		rep.set("serve.batches", float64(gs.Batches), "count")
	}
}

// probeServeEngine measures, on a fresh session under the server's
// engine options, the engine build (cold first search minus the warm
// median), the MS-BFS batch kernel at widths 1 and 64, the per-search
// work counts, the collective probe and the full validation.
func probeServeEngine(tr *tracer, rep *report, g *pbfs.Graph, keys []int64) error {
	sess := pbfs.NewSession()
	defer sess.Close()
	coldD, err := timed(tr, "pbfs.cold_search", 0, -1, func() error {
		_, err := sess.Search(g, keys[0], serveOptions)
		return err
	})
	if err != nil {
		return err
	}
	var warm, validateMs []float64
	var sums []searchSummary
	for i, key := range keys[:validateKeys] {
		var res *pbfs.Result
		d, err := timed(tr, "pbfs.search", 0, int64(i), func() (err error) {
			res, err = sess.Search(g, key, serveOptions)
			return err
		})
		if err != nil {
			return err
		}
		warm = append(warm, ms(d))
		sums = append(sums, summarize(res))
		d, err = timed(tr, "graph500.validate", 0, int64(i), func() error { return g.Validate(res) })
		if err != nil {
			return fmt.Errorf("validate key %d: %w", key, err)
		}
		validateMs = append(validateMs, ms(d))
	}
	rep.set("pbfs.engine_build_s", coldD.Seconds()-median(warm)/1e3, "s")
	rep.set("graph500.validate_ms", median(validateMs), "ms")
	reportSearchStats(rep, sums)
	if err := probeSearchCounts(tr, rep, sess, g, keys, serveOptions); err != nil {
		return err
	}

	for _, width := range []int{1, pbfs.BatchWidth} {
		var batch []float64
		for i := 0; i < 4; i++ {
			d, err := timed(tr, fmt.Sprintf("pbfs.batch%d", width), 0, int64(i), func() error {
				_, err := sess.BFSBatch(g, keys[i*width:(i+1)*width], serveOptions)
				return err
			})
			if err != nil {
				return err
			}
			batch = append(batch, ms(d))
		}
		rep.set(fmt.Sprintf("pbfs.batch%d_ms", width), median(batch), "ms")
	}
	if err := probeAllocs(tr, rep, sess, g, keys, serveOptions); err != nil {
		return err
	}
	probeAllreduce(tr, rep, serveOptions)
	return nil
}
