package spmat

import (
	"slices"

	"repro/internal/graph"
	"repro/internal/smp"
	"repro/internal/spvec"
)

// RowSplit partitions a DCSC rowwise into t strips, the layout the hybrid
// 2D algorithm uses for intra-node multithreading (Section 4.1, Figure 2):
// each thread owns an n/(pr·t) × n/pc hypersparse strip stored in its own
// DCSC, and a level's SpMSV runs one strip per thread with no shared
// mutable state. Strip outputs occupy disjoint, ordered row ranges, so the
// per-strip results concatenate into a sorted vector without a merge.
type RowSplit struct {
	Rows, Cols int64
	Strips     []*DCSC
	Offsets    []int64 // strip s covers rows [Offsets[s], Offsets[s+1])
}

// NewRowSplit builds a t-strip row split from triples. Duplicate
// entries are collapsed.
func NewRowSplit(rows, cols int64, ts []Triple, t int) (*RowSplit, error) {
	g, err := columnCSR(rows, cols, ts)
	if err != nil {
		return nil, err
	}
	return SplitCSR(g, 0, cols, cols, rows, t), nil
}

// SplitCSR cuts a rows×cols block out of a graph.CSR built with dedup
// and splits it into t row strips. Block column c is CSR row colLo+c;
// its entries are that row's neighbours in [rowLo, rowLo+rows), rebased
// to the strip. Neighbours are sorted, so a strip's share of a column
// is one contiguous run, and filling the strips in row order consumes
// each column's runs from a single cursor.
func SplitCSR(g *graph.CSR, colLo, cols, rowLo, rows int64, t int) *RowSplit {
	if t < 1 {
		t = 1
	}
	if int64(t) > rows && rows > 0 {
		t = int(rows)
	}
	rs := &RowSplit{Rows: rows, Cols: cols, Strips: make([]*DCSC, t), Offsets: make([]int64, t+1)}
	for s := 0; s <= t; s++ {
		rs.Offsets[s] = int64(s) * rows / int64(t)
	}
	// next[c] is the CSR position of column c's first entry not yet placed.
	next := make([]int64, cols)
	for c := range next {
		k, _ := slices.BinarySearch(g.Neighbors(colLo+int64(c)), rowLo)
		next[c] = g.XAdj[colLo+int64(c)] + int64(k)
	}
	for s := range rs.Strips {
		lo, hi := rowLo+rs.Offsets[s], rowLo+rs.Offsets[s+1]
		d := &DCSC{Rows: hi - lo, Cols: cols, CP: []int64{0}}
		for c, k := range next {
			end, stop := k, g.XAdj[colLo+int64(c)+1]
			for end < stop && g.Adj[end] < hi {
				end++
			}
			if end == k {
				continue
			}
			d.JC = append(d.JC, int64(c))
			for _, r := range g.Adj[k:end] {
				d.IR = append(d.IR, r-lo)
			}
			d.CP = append(d.CP, int64(len(d.IR)))
			next[c] = end
		}
		rs.Strips[s] = d
	}
	return rs
}

// Work returns the number of nonzeros an SpMSV with frontier f would
// touch across all strips.
func (rs *RowSplit) Work(f *spvec.Vec) int64 {
	var work int64
	for _, s := range rs.Strips {
		work += s.Work(f)
	}
	return work
}

// NNZ returns the total stored nonzeros across strips.
func (rs *RowSplit) NNZ() int64 {
	var n int64
	for _, s := range rs.Strips {
		n += s.NNZ()
	}
	return n
}

// RowScratch is the reusable per-rank working state of a RowSplit SpMSV:
// one kernel Scratch and one output vector per strip. Strips own disjoint
// scratches, so the strip-parallel execution shares no mutable state —
// exactly the thread-local accumulators of the hybrid algorithm. The zero
// value is ready to use and resizes lazily to the strip count it meets.
type RowScratch struct {
	parts []spvec.Vec
	per   []Scratch
}

func (rsc *RowScratch) ensure(n int) {
	if len(rsc.parts) < n {
		rsc.parts = append(rsc.parts, make([]spvec.Vec, n-len(rsc.parts))...)
	}
	if len(rsc.per) < n {
		rsc.per = append(rsc.per, make([]Scratch, n-len(rsc.per))...)
	}
}

// SpMSV runs the product strip-parallel and concatenates the rebased
// outputs into dst. A non-nil pool executes one strip per worker — the
// hybrid algorithm's real intra-rank threads; a nil pool runs the strips
// serially (the flat algorithm, which still benefits from the strip
// layout's locality). A non-nil rsc makes steady-state calls
// allocation-free; opts.SPA and opts.Scratch apply per strip only when
// their accumulator matches the strip's row range.
func (rs *RowSplit) SpMSV(dst *spvec.Vec, f *spvec.Vec, opts SpMSVOpts, pool *smp.Pool, rsc *RowScratch) *spvec.Vec {
	n := len(rs.Strips)
	if rsc == nil {
		rsc = &RowScratch{}
	}
	rsc.ensure(n)
	parts := rsc.parts
	parallel := pool != nil && n > 1
	run := func(s int) {
		stripOpts := opts
		stripOpts.Scratch = &rsc.per[s]
		// A caller-provided SPA can serve at most one strip at a time and
		// only if it spans the strip's rows; concurrent strips always use
		// their own scratch accumulators.
		if stripOpts.SPA != nil && (parallel || stripOpts.SPA.Size() != rs.Strips[s].Rows) {
			stripOpts.SPA = nil
		}
		rs.Strips[s].SpMSV(&parts[s], f, stripOpts)
	}
	if parallel {
		pool.Do(n, run)
	} else {
		for s := 0; s < n; s++ {
			run(s)
		}
	}
	dst.Reset()
	for s := range parts[:n] {
		off := rs.Offsets[s]
		for k, r := range parts[s].Ind {
			dst.Ind = append(dst.Ind, r+off)
			dst.Val = append(dst.Val, parts[s].Val[k])
		}
	}
	return dst
}
