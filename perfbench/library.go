package main

import (
	"fmt"
	"runtime"
	"time"

	"repro"
	"repro/internal/bfs1d"
	"repro/internal/bfs2d"
	"repro/internal/cluster"
	"repro/internal/dirheur"
	"repro/internal/graph"
	"repro/internal/netmodel"
	"repro/internal/rmat"
	"repro/internal/spmat"
	"repro/internal/webgen"
)

// Graph sizes and repetition counts shared by the workloads.
const (
	rmatScale      = 16
	rmatEdgeFactor = 16
	webVerts       = 1 << 16
	numKeys        = 64 // Graph 500 search keys a closed loop cycles over
	setupReps      = 3  // set-ups per untraced run; setup_s is their median
	validateKeys   = 8  // results per run checked with the full Graph.Validate
	probeSearches  = 16 // searches per allocation or trace-count probe
	ranks          = 16
)

// libSpec is one closed-loop library workload.
type libSpec struct {
	web bool
	opt pbfs.Options
}

var libSpecs = map[string]libSpec{
	"rmat-2d": {opt: pbfs.Options{Algorithm: pbfs.TwoDHybrid, Ranks: ranks, Machine: "hopper"}},
	"web-1d":  {web: true, opt: pbfs.Options{Algorithm: pbfs.OneDFlat, Ranks: ranks, Machine: "hopper"}},
}

// newGraph builds the workload's graph through the facade.
func newGraph(web bool, seed uint64) (*pbfs.Graph, error) {
	if web {
		return pbfs.NewWebCrawlGraph(webVerts, seed)
	}
	return pbfs.NewRMATGraph(rmatScale, rmatEdgeFactor, seed)
}

// oracle holds the serial BFS answer for one key: distances packed
// into 16 bits, plus the summary fields.
type oracle struct {
	dist      []uint16
	levels    int64
	reached   int64
	traversed int64
}

const unreached16 = ^uint16(0)

func newOracle(g *pbfs.Graph, src int64, keepDist bool) (oracle, error) {
	r := g.SerialBFS(src)
	o := oracle{levels: r.Levels, traversed: r.TraversedEdges}
	if keepDist {
		o.dist = make([]uint16, len(r.Dist))
	}
	for v, d := range r.Dist {
		if d == pbfs.Unreached {
			if keepDist {
				o.dist[v] = unreached16
			}
			continue
		}
		if d >= int64(unreached16) {
			return o, fmt.Errorf("source %d: level %d does not fit the oracle's 16 bits", src, d)
		}
		o.reached++
		if keepDist {
			o.dist[v] = uint16(d)
		}
	}
	return o, nil
}

// matches reports whether dist equals the oracle's distances.
func (o oracle) matches(dist []int64) bool {
	if len(dist) != len(o.dist) {
		return false
	}
	for v, d := range dist {
		want := int64(o.dist[v])
		if o.dist[v] == unreached16 {
			want = pbfs.Unreached
		}
		if d != want {
			return false
		}
	}
	return true
}

// driver runs the workload's level-synchronous driver directly, with
// the options the facade's engine passes it.
type driver struct {
	name string // span and metric prefix: "bfs1d" or "bfs2d"
	run  func(src int64) (dist []int64, levels, scanned int64, err error)
	stop func()
}

// newDriver distributes el for opt's algorithm and returns its driver;
// the distribution is timed under the driver's "<name>.distribute" span.
func newDriver(tr *tracer, parent int, el *graph.EdgeList, opt pbfs.Options) (*driver, time.Duration, error) {
	m := netmodel.Profiles()[opt.Machine]
	threads := 1
	if opt.Algorithm == pbfs.TwoDHybrid || opt.Algorithm == pbfs.OneDHybrid {
		threads = m.ThreadsPerRank
	}
	shared := m.WithRanksPerNode(m.CoresPerNode / threads)
	w := cluster.NewWorld(opt.Ranks, shared)
	switch opt.Algorithm {
	case pbfs.TwoDFlat, pbfs.TwoDHybrid:
		pr, pc := cluster.ClosestSquare(opt.Ranks)
		var dg *bfs2d.Graph
		d, err := timed(tr, "bfs2d.distribute", parent, -1, func() (err error) {
			dg, err = bfs2d.Distribute(el, pr, pc, threads)
			return err
		})
		if err != nil {
			return nil, 0, err
		}
		grid := cluster.NewGrid(w, pr, pc)
		arena := &bfs2d.Arena{}
		o := bfs2d.Options{Threads: threads, Kernel: spmat.KernelAuto, Vector: bfs2d.Dist2D,
			Direction: dirheur.ModeAuto, Price: shared, Arena: arena}
		return &driver{name: "bfs2d", stop: arena.Close,
			run: func(src int64) ([]int64, int64, int64, error) {
				w.Reset()
				out, err := bfs2d.Run(w, grid, dg, src, o)
				if err != nil {
					return nil, 0, 0, err
				}
				return out.Dist, out.Levels, out.ScannedTopDown + out.ScannedBottomUp, nil
			}}, d, nil
	case pbfs.OneDFlat, pbfs.OneDHybrid:
		var dg *bfs1d.Graph
		d, err := timed(tr, "bfs1d.distribute", parent, -1, func() (err error) {
			dg, err = bfs1d.Distribute(el, opt.Ranks)
			return err
		})
		if err != nil {
			return nil, 0, err
		}
		dg.Symmetric = true
		arena := &bfs1d.Arena{}
		o := bfs1d.Options{Threads: threads, LocalShortcut: true, DedupSends: true,
			Direction: dirheur.ModeAuto, Price: shared, Arena: arena}
		return &driver{name: "bfs1d", stop: arena.Close,
			run: func(src int64) ([]int64, int64, int64, error) {
				w.Reset()
				out := bfs1d.Run(w, dg, src, o)
				return out.Dist, out.Levels, out.ScannedTopDown + out.ScannedBottomUp, nil
			}}, d, nil
	}
	return nil, 0, fmt.Errorf("no direct driver for %v", opt.Algorithm)
}

// timed runs fn under a span and returns its wall time.
func timed(tr *tracer, name string, parent int, req int64, fn func() error) (time.Duration, error) {
	id := tr.begin(name, parent, req)
	start := time.Now()
	err := fn()
	d := time.Since(start)
	tr.end(id)
	return d, err
}

// buildLayers constructs the workload's graph through the internal
// layers one call at a time, so each stage is timed on its own, and
// returns the edge list the drivers distribute.
func buildLayers(tr *tracer, rep *report, web bool, seed uint64) (*graph.EdgeList, error) {
	parent := tr.begin("setup.layers", 0, -1)
	defer tr.end(parent)
	var el *graph.EdgeList
	gen, name := "rmat.generate", "rmat.generate_s"
	if web {
		gen, name = "webgen.generate", "webgen.generate_s"
	}
	d, err := timed(tr, gen, parent, -1, func() (err error) {
		if web {
			el, err = webgen.UKUnionLike(webVerts, seed).GenerateUndirected()
		} else {
			el, err = rmat.Graph500(rmatScale, rmatEdgeFactor, seed).GenerateUndirected()
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	rep.set(name, d.Seconds(), "s")
	d, err = timed(tr, "graph.build_csr", parent, -1, func() error {
		_, err := graph.BuildCSR(el, true)
		return err
	})
	if err != nil {
		return nil, err
	}
	rep.set("graph.build_csr_s", d.Seconds(), "s")
	return el, nil
}

// searchSummary is what the per-layer report keeps of one Result.
type searchSummary struct {
	levels, scanned, sent int64
	commFrac              float64
	commByTag             map[string]float64
}

func summarize(r *pbfs.Result) searchSummary {
	s := searchSummary{levels: r.Levels, scanned: r.ScannedTopDown + r.ScannedBottomUp,
		sent: r.SentWords, commByTag: r.CommByPhase}
	if r.SimTime > 0 {
		s.commFrac = r.CommTime / r.SimTime
	}
	return s
}

// reportSearchStats sets the work-count and cost-model metrics as
// means over the summaries.
func reportSearchStats(rep *report, sums []searchSummary) {
	var levels, scanned, sent, frac []float64
	byTag := make(map[string][]float64)
	for _, s := range sums {
		levels = append(levels, float64(s.levels))
		scanned = append(scanned, float64(s.scanned))
		sent = append(sent, float64(s.sent))
		frac = append(frac, s.commFrac)
		for _, tag := range commTags {
			byTag[tag] = append(byTag[tag], s.commByTag[tag])
		}
	}
	rep.set("bfs.levels", mean(levels), "count")
	rep.set("bfs.scanned_edges", mean(scanned), "count")
	rep.set("cluster.sent_words", mean(sent), "words")
	rep.set("sim.comm_frac", mean(frac), "ratio")
	for _, tag := range commTags {
		rep.set("sim.comm_s."+tag, mean(byTag[tag]), "s")
	}
}

// runLibrary runs rmat-2d or web-1d: a closed loop of one caller doing
// single-source Session.Search calls over numKeys Graph 500 keys.
func runLibrary(cfg config, tr *tracer, rep *report) error {
	spec := libSpecs[cfg.workload]
	var drv *driver
	if cfg.trace {
		el, err := buildLayers(tr, rep, spec.web, cfg.seed)
		if err != nil {
			return err
		}
		var d time.Duration
		if drv, d, err = newDriver(tr, 0, el, spec.opt); err != nil {
			return err
		}
		defer drv.stop()
		rep.set(drv.name+".distribute_s", d.Seconds(), "s")
	}

	// Set-up: graph generation and CSR build (NewRMATGraph or
	// NewWebCrawlGraph), then a session's cold first search, which
	// distributes the graph and builds the engine. Key selection in
	// between is the benchmark's input choice and is not timed.
	reps := setupReps
	if cfg.trace {
		reps = 1
	}
	var (
		g      *pbfs.Graph
		sess   *pbfs.Session
		keys   []int64
		cold   *pbfs.Result
		coldD  time.Duration
		setups []float64
	)
	for i := 0; i < reps; i++ {
		if sess != nil {
			sess.Close()
		}
		g, sess = nil, nil
		runtime.GC()
		buildD, err := timed(tr, "pbfs.new_graph", 0, -1, func() (err error) {
			g, err = newGraph(spec.web, cfg.seed)
			return err
		})
		if err != nil {
			return err
		}
		keys = g.Sources(numKeys, cfg.seed)
		if len(keys) < numKeys {
			return fmt.Errorf("graph has only %d search keys", len(keys))
		}
		coldD, err = timed(tr, "pbfs.cold_search", 0, -1, func() (err error) {
			sess = pbfs.NewSession()
			cold, err = sess.Search(g, keys[0], spec.opt)
			return err
		})
		if err != nil {
			return err
		}
		setups = append(setups, (buildD + coldD).Seconds())
	}
	defer sess.Close()

	oracles := make([]oracle, numKeys)
	id := tr.begin("check.oracle", 0, -1)
	for k, key := range keys {
		o, err := newOracle(g, key, true)
		if err != nil {
			return err
		}
		oracles[k] = o
	}
	tr.end(id)
	outcomes := make(map[string]int)
	record := func(dist []int64, levels int64, k int, err error) {
		wrong := err == nil && (levels != oracles[k].levels || !oracles[k].matches(dist))
		status := 200
		if err != nil {
			status = 500
		}
		outcomes[classify(status, wrong, false)]++
	}
	record(cold.Dist, cold.Levels, 0, nil)

	// The measured closed loop. The traced run follows each facade
	// search with the driver's Run on the same key, so the two are
	// timed under the same conditions.
	var (
		lat, drvLat, wallTEPS []float64
		overhead              []float64 // Search minus Run on the same key, per pair
		drvNs, drvScanned     float64
		drvIters              float64
		simTEPS               = make([]float64, 0, numKeys)
		sums                  []searchSummary
		toValidate            []*pbfs.Result
	)
	runtime.GC() // start from a heap without the set-up's and the oracle's garbage
	measure := tr.begin("measure", 0, -1)
	start := time.Now()
	end := start.Add(time.Duration(cfg.seconds) * time.Second)
	for i := 0; time.Now().Before(end); i++ {
		k := i % numKeys
		var res *pbfs.Result
		d, err := timed(tr, "pbfs.search", measure, int64(i), func() (err error) {
			res, err = sess.Search(g, keys[k], spec.opt)
			return err
		})
		if err != nil {
			record(nil, 0, k, err)
			continue
		}
		record(res.Dist, res.Levels, k, nil)
		lat = append(lat, ms(d))
		wallTEPS = append(wallTEPS, float64(res.TraversedEdges)/d.Seconds())
		if i < numKeys {
			simTEPS = append(simTEPS, res.TEPS())
			sums = append(sums, summarize(res))
		}
		if i < validateKeys {
			toValidate = append(toValidate, res)
		}
		if drv == nil {
			continue
		}
		var dist []int64
		var levels, scanned int64
		d, err = timed(tr, drv.name+".run", measure, int64(i), func() (err error) {
			dist, levels, scanned, err = drv.run(keys[k])
			return err
		})
		record(dist, levels, k, err)
		if err == nil {
			drvLat = append(drvLat, ms(d))
			overhead = append(overhead, lat[len(lat)-1]-ms(d))
			drvNs += float64(d.Nanoseconds())
			drvScanned += float64(scanned)
			drvIters += float64(levels + 1) // the last iteration scans and finds nothing
		}
	}
	loopD := time.Since(start)
	tr.end(measure)

	var validateMs []float64
	for _, res := range toValidate {
		d, err := timed(tr, "graph500.validate", 0, -1, func() error { return g.Validate(res) })
		validateMs = append(validateMs, ms(d))
		if err != nil {
			note("validate key %d: %v", res.Source, err)
			outcomes[outcomeOK]--
			outcomes[outcomeWrong]++
		}
	}

	setOutcomes(rep, outcomes)
	p50 := percentile(lat, 50)
	if !cfg.trace {
		rep.set("setup_s", median(setups), "s")
		setLatency(rep, lat)
		rep.set("teps_hmean", hmean(wallTEPS), "edges/s")
		rep.set("sim_teps_hmean", hmean(simTEPS), "edges/s")
		return nil
	}

	rep.set("pbfs.engine_build_s", coldD.Seconds()-p50/1e3, "s")
	rep.set(drv.name+".run_ms", percentile(drvLat, 50), "ms")
	rep.set("pbfs.search_overhead_ms", median(overhead), "ms")
	rep.set("bfs.ns_per_scanned_edge", drvNs/drvScanned, "ns")
	rep.set("bfs.us_per_level", drvNs/1e3/drvIters, "us")
	rep.set("graph500.validate_ms", median(validateMs), "ms")
	rep.set("trace.latency_p50_ms", p50, "ms")
	reportSearchStats(rep, sums)
	if err := probeSearchCounts(tr, rep, sess, g, keys, spec.opt); err != nil {
		return err
	}
	if err := probeAllocs(tr, rep, sess, g, keys, spec.opt); err != nil {
		return err
	}
	probeAllreduce(tr, rep, spec.opt)
	reportTraceOverhead(tr, rep, measure, loopD)
	return nil
}

// setLatency sets the median and p90 latency and states how many
// samples lie beyond p90, which the tail rule needs to be at least
// minBeyond.
func setLatency(rep *report, lat []float64) {
	rep.set("latency_p50_ms", percentile(lat, 50), "ms")
	rep.set("latency_p90_ms", percentile(lat, 90), "ms")
	note("latency samples %d, %d beyond p90 (highest tail with >= %d beyond: p%g)",
		len(lat), beyond(len(lat), 90), minBeyond, highestTail(len(lat)))
}

// setOutcomes fills the result line's counts and the failure ratios
// from the per-class outcome counts of every checked answer.
func setOutcomes(rep *report, outcomes map[string]int) {
	rep.attempted, rep.failed = 0, 0
	for outcome, n := range outcomes {
		rep.attempted += n
		if hardFailure(outcome) {
			rep.failed += n
		}
	}
	rep.wrong = outcomes[outcomeWrong]
	ok := float64(outcomes[outcomeOK]) / float64(max(rep.attempted, 1))
	rep.set("ok_frac", ok, "ratio")
	rep.set("fail_frac", 1-ok, "ratio")
}

// probeSearchCounts runs probeSearches traced-options searches for the
// per-level direction profile: how many levels ran bottom-up.
func probeSearchCounts(tr *tracer, rep *report, sess *pbfs.Session, g *pbfs.Graph, keys []int64, opt pbfs.Options) error {
	id := tr.begin("probe.direction", 0, -1)
	defer tr.end(id)
	opt.Trace = true
	var bottomUp []float64
	for _, key := range keys[:probeSearches] {
		res, err := sess.Search(g, key, opt)
		if err != nil {
			return err
		}
		n := 0
		for _, up := range res.LevelBottomUp {
			if up {
				n++
			}
		}
		bottomUp = append(bottomUp, float64(n))
	}
	rep.set("bfs.bottomup_levels", mean(bottomUp), "count")
	return nil
}

// probeAllocs measures heap allocations per warm search.
func probeAllocs(tr *tracer, rep *report, sess *pbfs.Session, g *pbfs.Graph, keys []int64, opt pbfs.Options) error {
	id := tr.begin("probe.allocs", 0, -1)
	defer tr.end(id)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, key := range keys[:probeSearches] {
		if _, err := sess.Search(g, key, opt); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&after)
	rep.set("go.allocs_per_search", float64(after.Mallocs-before.Mallocs)/probeSearches, "count")
	rep.set("go.bytes_per_search", float64(after.TotalAlloc-before.TotalAlloc)/probeSearches, "bytes")
	return nil
}

// probeAllreduce times AllreduceSum rounds across a ranks-wide world
// priced like the workload's engine: the collective rendezvous cost.
func probeAllreduce(tr *tracer, rep *report, opt pbfs.Options) {
	const rounds = 2000
	id := tr.begin("cluster.allreduce_probe", 0, -1)
	defer tr.end(id)
	w := cluster.NewWorld(opt.Ranks, netmodel.Profiles()[opt.Machine])
	grp := w.WorldGroup()
	start := time.Now()
	w.Run(func(r *cluster.Rank) {
		for i := 0; i < rounds; i++ {
			grp.AllreduceSum(r, 1, "allreduce")
		}
	})
	rep.set("cluster.allreduce_us", float64(time.Since(start).Nanoseconds())/1e3/rounds, "us")
}

// reportTraceOverhead estimates what recording spans cost the measured
// loop: spans recorded under it times the per-span cost.
func reportTraceOverhead(tr *tracer, rep *report, measure int, loop time.Duration) {
	perSpan := spanCost()
	n := 0
	for _, s := range tr.spans {
		if s.Parent == measure {
			n++
		}
	}
	rep.set("trace.ns_per_span", float64(perSpan.Nanoseconds()), "ns")
	rep.set("trace.overhead_frac", float64(n)*float64(perSpan)/float64(loop), "ratio")
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
