package graph_test

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/bfs1d"
	"repro/internal/bfs2d"
	"repro/internal/graph"
	"repro/internal/prng"
	"repro/internal/spmat"
)

// The construction-equivalence tests check every structure cut out of
// graph.BuildCSR — the CSR itself, the 1D locals and in-adjacency, the
// 2D DCSC strips and column degrees, and the spmat constructors —
// against a naive reference that filters, comparison-sorts and
// deduplicates the edges of each piece on its own.

// withoutLoops returns the edges with U != V.
func withoutLoops(es []graph.Edge) []graph.Edge {
	var out []graph.Edge
	for _, e := range es {
		if e.U != e.V {
			out = append(out, e)
		}
	}
	return out
}

// refRows builds compressed rows [lo, hi) from the edges whose U falls
// in that range, rebased to lo: the edges are sorted by (U, V) and,
// with dedup, repeated edges are kept once.
func refRows(es []graph.Edge, lo, hi int64, dedup bool) (ptr, ind []int64) {
	var in []graph.Edge
	for _, e := range es {
		if e.U >= lo && e.U < hi {
			in = append(in, e)
		}
	}
	sort.Slice(in, func(i, j int) bool {
		if in[i].U != in[j].U {
			return in[i].U < in[j].U
		}
		return in[i].V < in[j].V
	})
	ptr = make([]int64, hi-lo+1)
	for i, e := range in {
		if dedup && i > 0 && e == in[i-1] {
			continue
		}
		ptr[e.U-lo+1]++
		ind = append(ind, e.V)
	}
	for r := range ptr[1:] {
		ptr[r+1] += ptr[r]
	}
	return ptr, ind
}

// refDCSC is the DCSC of entries given as edges (U = column, V = row):
// the CSC from refRows with its empty columns dropped.
func refDCSC(es []graph.Edge, cols int64) (jc, cp, ir []int64) {
	ptr, ind := refRows(es, 0, cols, true)
	cp = []int64{0}
	for c := int64(0); c < cols; c++ {
		if ptr[c+1] > ptr[c] {
			jc = append(jc, c)
			ir = append(ir, ind[ptr[c]:ptr[c+1]]...)
			cp = append(cp, int64(len(ir)))
		}
	}
	return jc, cp, ir
}

// refStrips returns the expected strip row offsets of a rows-row block
// split t ways, and the block entries (U = column, V = row, both local)
// of each strip.
func refStrips(es []graph.Edge, colLo, colHi, rowLo, rows int64, t int) ([]int64, [][]graph.Edge) {
	if int64(t) > rows && rows > 0 {
		t = int(rows)
	}
	off := make([]int64, t+1)
	for s := range off {
		off[s] = int64(s) * rows / int64(t)
	}
	strips := make([][]graph.Edge, t)
	for s := range strips {
		lo, hi := rowLo+off[s], rowLo+off[s+1]
		for _, e := range es {
			if e.U >= colLo && e.U < colHi && e.V >= lo && e.V < hi {
				strips[s] = append(strips[s], graph.Edge{U: e.U - colLo, V: e.V - lo})
			}
		}
	}
	return off, strips
}

func equal(t *testing.T, what string, got, want []int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d, want %d (%v vs %v)", what, len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s[%d] = %d, want %d (%v vs %v)", what, i, got[i], want[i], got, want)
		}
	}
}

func checkRowSplit(t *testing.T, what string, rs *spmat.RowSplit, off []int64, strips [][]graph.Edge, cols int64) {
	t.Helper()
	equal(t, what+" Offsets", rs.Offsets, off)
	if len(rs.Strips) != len(strips) {
		t.Fatalf("%s: %d strips, want %d", what, len(rs.Strips), len(strips))
	}
	for s, d := range rs.Strips {
		w := fmt.Sprintf("%s strip %d", what, s)
		if d.Rows != off[s+1]-off[s] || d.Cols != cols {
			t.Fatalf("%s: %dx%d, want %dx%d", w, d.Rows, d.Cols, off[s+1]-off[s], cols)
		}
		jc, cp, ir := refDCSC(strips[s], cols)
		equal(t, w+" JC", d.JC, jc)
		equal(t, w+" CP", d.CP, cp)
		equal(t, w+" IR", d.IR, ir)
	}
}

// checkConstruction compares BuildCSR, the 1D carve on p ranks and the
// 2D carve on each {pr, pc, threads} grid against the reference.
func checkConstruction(t *testing.T, el *graph.EdgeList, directed bool, ps []int, grids [][3]int) {
	t.Helper()
	n := el.NumVerts
	simple := withoutLoops(el.Edges)
	for _, dedup := range []bool{false, true} {
		g, err := graph.BuildCSR(el, dedup)
		if err != nil {
			t.Fatal(err)
		}
		es := el.Edges
		if dedup {
			es = simple
		}
		ptr, ind := refRows(es, 0, n, dedup)
		equal(t, fmt.Sprintf("BuildCSR(dedup=%v) XAdj", dedup), g.XAdj, ptr)
		equal(t, fmt.Sprintf("BuildCSR(dedup=%v) Adj", dedup), g.Adj, ind)
	}

	var reversed []graph.Edge
	for _, e := range simple {
		reversed = append(reversed, graph.Edge{U: e.V, V: e.U})
	}
	for _, p := range ps {
		dg, err := bfs1d.Distribute(el, p)
		if err != nil {
			t.Fatal(err)
		}
		dg.Symmetric = !directed
		var total int64
		for r, lg := range dg.Locals {
			ptr, ind := refRows(simple, dg.Part.Start(r), dg.Part.End(r), true)
			equal(t, fmt.Sprintf("p=%d rank %d XAdj", p, r), lg.XAdj, ptr)
			equal(t, fmt.Sprintf("p=%d rank %d Adj", p, r), lg.Adj, ind)
			total += int64(len(ind))
		}
		if dg.TotalAdj != total {
			t.Fatalf("p=%d: TotalAdj %d, want %d", p, dg.TotalAdj, total)
		}
		in := simple
		if directed {
			in = reversed
		}
		for r, lg := range dg.Ins() {
			ptr, ind := refRows(in, dg.Part.Start(r), dg.Part.End(r), true)
			equal(t, fmt.Sprintf("p=%d rank %d in-XAdj", p, r), lg.XAdj, ptr)
			equal(t, fmt.Sprintf("p=%d rank %d in-Adj", p, r), lg.Adj, ind)
		}
	}

	degree, _ := refRows(simple, 0, n, true)
	for v := range degree[:n] {
		degree[v] = degree[v+1] - degree[v]
	}
	for _, grid := range grids {
		pr, pc, threads := grid[0], grid[1], grid[2]
		dg, err := bfs2d.Distribute(el, pr, pc, threads)
		if err != nil {
			t.Fatal(err)
		}
		pt := dg.Part
		for i := 0; i < pr; i++ {
			for j := 0; j < pc; j++ {
				rowLo, colLo, colHi := pt.RowStart(i), pt.ColStart(j), pt.ColStart(j+1)
				off, strips := refStrips(simple, colLo, colHi, rowLo, pt.RowStart(i+1)-rowLo, threads)
				checkRowSplit(t, fmt.Sprintf("%dx%dx%d block (%d,%d)", pr, pc, threads, i, j),
					dg.Blocks[i][j], off, strips, colHi-colLo)
			}
		}
		equal(t, fmt.Sprintf("%dx%dx%d ColDegree", pr, pc, threads), dg.ColDegree, degree[:n])
	}
}

func randomEdges(g *prng.Xoshiro256, n int64, m int) *graph.EdgeList {
	el := &graph.EdgeList{NumVerts: n}
	for i := 0; i < m; i++ {
		el.Edges = append(el.Edges, graph.Edge{U: g.Int64n(n), V: g.Int64n(n)})
	}
	return el
}

func TestConstructionEquivalence(t *testing.T) {
	g := prng.New(11)
	cases := []struct {
		name     string
		el       *graph.EdgeList
		directed bool
		ps       []int
		grids    [][3]int
	}{
		{"duplicates", (&graph.EdgeList{NumVerts: 7, Edges: []graph.Edge{
			{U: 0, V: 1}, {U: 0, V: 1}, {U: 2, V: 5}, {U: 0, V: 1}, {U: 6, V: 3}, {U: 2, V: 5},
		}}).Symmetrize(), false, []int{1, 3}, [][3]int{{2, 2, 1}, {2, 3, 2}}},
		{"self-loops", (&graph.EdgeList{NumVerts: 6, Edges: []graph.Edge{
			{U: 0, V: 0}, {U: 1, V: 2}, {U: 3, V: 3}, {U: 3, V: 3}, {U: 5, V: 4}, {U: 4, V: 4},
		}}).Symmetrize(), false, []int{2, 6}, [][3]int{{2, 2, 1}, {3, 2, 2}}},
		{"isolated vertices", (&graph.EdgeList{NumVerts: 20, Edges: []graph.Edge{
			{U: 2, V: 3}, {U: 3, V: 4}, {U: 11, V: 12},
		}}).Symmetrize(), false, []int{4, 7}, [][3]int{{2, 2, 1}, {4, 4, 3}}},
		{"empty edge list", &graph.EdgeList{NumVerts: 9}, false, []int{1, 4, 9}, [][3]int{{1, 1, 1}, {3, 3, 2}}},
		{"directed", randomEdges(g, 30, 150), true, []int{1, 4, 7}, [][3]int{{2, 3, 1}, {3, 3, 2}}},
		{"p = N", randomEdges(g, 12, 40).Symmetrize(), false, []int{12}, [][3]int{{3, 4, 1}}},
		{"more strips than block rows", randomEdges(g, 10, 60).Symmetrize(), false, []int{2}, [][3]int{{3, 3, 8}, {5, 2, 6}}},
		{"2x8 and 8x2 grids", randomEdges(g, 37, 300).Symmetrize(), false, []int{5}, [][3]int{{2, 8, 1}, {8, 2, 1}, {2, 8, 3}, {8, 2, 3}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			checkConstruction(t, c.el, c.directed, c.ps, c.grids)
		})
	}
	for seed := uint64(0); seed < 20; seed++ {
		g := prng.New(seed)
		n := int64(g.Intn(60) + 16)
		el := randomEdges(g, n, g.Intn(400))
		directed := seed%2 == 0
		if !directed {
			el = el.Symmetrize()
		}
		pr, pc := g.Intn(4)+1, g.Intn(4)+1
		t.Run(fmt.Sprintf("random seed %d", seed), func(t *testing.T) {
			checkConstruction(t, el, directed, []int{g.Intn(8) + 1}, [][3]int{{pr, pc, g.Intn(4) + 1}})
		})
	}
}

// TestSpmatConstructionEquivalence checks the triple-based spmat
// constructors, whose local row and column indices share values (a
// diagonal entry there is not a self-loop), against the reference.
func TestSpmatConstructionEquivalence(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		g := prng.New(seed)
		rows, cols := int64(g.Intn(30)+1), int64(g.Intn(30)+1)
		var ts []spmat.Triple
		var es []graph.Edge // U = column, V = row
		for i, m := 0, g.Intn(200); i < m; i++ {
			tr := spmat.Triple{Row: g.Int64n(rows), Col: g.Int64n(cols)}
			ts = append(ts, tr, tr) // every entry repeated
			es = append(es, graph.Edge{U: tr.Col, V: tr.Row})
		}
		what := fmt.Sprintf("seed %d %dx%d", seed, rows, cols)

		csc, err := spmat.NewCSC(rows, cols, append([]spmat.Triple(nil), ts...))
		if err != nil {
			t.Fatal(err)
		}
		ptr, ind := refRows(es, 0, cols, true)
		equal(t, what+" CSC ColPtr", csc.ColPtr, ptr)
		equal(t, what+" CSC RowInd", csc.RowInd, ind)

		d, err := spmat.NewDCSC(rows, cols, append([]spmat.Triple(nil), ts...))
		if err != nil {
			t.Fatal(err)
		}
		jc, cp, ir := refDCSC(es, cols)
		equal(t, what+" DCSC JC", d.JC, jc)
		equal(t, what+" DCSC CP", d.CP, cp)
		equal(t, what+" DCSC IR", d.IR, ir)

		threads := g.Intn(6) + 1
		rs, err := spmat.NewRowSplit(rows, cols, append([]spmat.Triple(nil), ts...), threads)
		if err != nil {
			t.Fatal(err)
		}
		off, strips := refStrips(es, 0, cols, 0, rows, threads)
		checkRowSplit(t, what+" RowSplit", rs, off, strips, cols)

		dim := max(rows, cols)
		sym, err := spmat.NewSym(dim, append([]spmat.Triple(nil), ts...))
		if err != nil {
			t.Fatal(err)
		}
		var upper []graph.Edge
		for _, e := range withoutLoops(es) {
			upper = append(upper, graph.Edge{U: max(e.U, e.V), V: min(e.U, e.V)})
		}
		jc, cp, ir = refDCSC(upper, dim)
		equal(t, what+" Sym JC", sym.U.JC, jc)
		equal(t, what+" Sym CP", sym.U.CP, cp)
		equal(t, what+" Sym IR", sym.U.IR, ir)
	}
}
