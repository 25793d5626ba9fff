// Package graph provides the in-memory graph representations used by the
// BFS implementations: raw edge lists and the compressed sparse row (CSR)
// adjacency structure described in Section 4.1 of the paper.
//
// Vertex identifiers are 64-bit integers, matching the paper's choice.
// For undirected graphs each edge is stored twice (u→v and v→u), again
// matching the paper.
package graph

import (
	"fmt"
	"slices"
)

// Edge is a directed edge from U to V.
type Edge struct {
	U, V int64
}

// EdgeList is a collection of directed edges together with the vertex
// count of the graph they belong to.
type EdgeList struct {
	NumVerts int64
	Edges    []Edge
}

// Symmetrize returns an edge list in which every edge (u,v) is accompanied
// by (v,u). Self-loops are kept once. The Graph 500 benchmark symmetrizes
// its input the same way to model undirected graphs.
func (el *EdgeList) Symmetrize() *EdgeList {
	out := make([]Edge, 0, 2*len(el.Edges))
	for _, e := range el.Edges {
		out = append(out, e)
		if e.U != e.V {
			out = append(out, Edge{e.V, e.U})
		}
	}
	return &EdgeList{NumVerts: el.NumVerts, Edges: out}
}

// CSR is a compressed-sparse-row adjacency structure. All adjacencies of
// vertex v live in Adj[XAdj[v]:XAdj[v+1]], sorted ascending. XAdj has
// NumVerts+1 entries.
type CSR struct {
	NumVerts int64
	XAdj     []int64
	Adj      []int64
}

// NumEdges returns the number of stored adjacencies (directed edge slots).
// For an undirected graph built via Symmetrize this is twice the number of
// undirected edges (self-loops counted once).
func (g *CSR) NumEdges() int64 { return int64(len(g.Adj)) }

// Degree returns the out-degree of vertex v.
func (g *CSR) Degree(v int64) int64 { return g.XAdj[v+1] - g.XAdj[v] }

// Neighbors returns the adjacency slice of vertex v. The slice aliases the
// CSR's internal storage and must not be modified.
func (g *CSR) Neighbors(v int64) []int64 {
	return g.Adj[g.XAdj[v]:g.XAdj[v+1]]
}

// BuildCSR constructs a CSR from an edge list with a two-pass counting
// sort: the edges are first bucketed by destination, then stably by
// source, so every adjacency block comes out sorted without a
// comparison sort. Duplicate edges are retained when dedup is false
// (the Graph 500 generator produces duplicates and the benchmark keeps
// them); when dedup is true duplicates and self-loops are removed,
// which is the layout the paper uses for its local data structures.
// This is the one place the repository sorts and deduplicates
// adjacency: the 1D and 2D distributions and the spmat constructors
// are all cut out of its output.
func BuildCSR(el *EdgeList, dedup bool) (*CSR, error) {
	n := el.NumVerts
	if n < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", n)
	}
	for _, e := range el.Edges {
		if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", e.U, e.V, n)
		}
	}
	byDst, xadj := make([]int64, n+1), make([]int64, n+1)
	for _, e := range el.Edges {
		byDst[e.V+1]++
		if !dedup || e.U != e.V {
			xadj[e.U+1]++
		}
	}
	for v := int64(0); v < n; v++ {
		byDst[v+1] += byDst[v]
		xadj[v+1] += xadj[v]
	}
	// Pass 1: bucket the sources by destination. After the scatter,
	// byDst[v] is the end of destination v's bucket in src.
	src := make([]int64, len(el.Edges))
	for _, e := range el.Edges {
		src[byDst[e.V]] = e.U
		byDst[e.V]++
	}
	// Pass 2: walk the buckets in ascending destination order and
	// append each destination to its source's row, so rows fill sorted.
	// A duplicate is then the entry just written to the same row.
	adj := make([]int64, xadj[n])
	fill := slices.Clone(xadj[:n])
	var lo int64
	for v := int64(0); v < n; v++ {
		for _, u := range src[lo:byDst[v]] {
			if dedup && (u == v || (fill[u] > xadj[u] && adj[fill[u]-1] == v)) {
				continue
			}
			adj[fill[u]] = v
			fill[u]++
		}
		lo = byDst[v]
	}
	if dedup {
		// Close the gaps the dropped duplicates left at row ends;
		// writes never overtake reads.
		var w int64
		for u := int64(0); u < n; u++ {
			start := xadj[u]
			xadj[u] = w
			w += int64(copy(adj[w:], adj[start:fill[u]]))
		}
		xadj[n] = w
		adj = adj[:w]
	}
	return &CSR{NumVerts: n, XAdj: xadj, Adj: adj}, nil
}

// DegreeStats summarizes a degree distribution.
type DegreeStats struct {
	Min, Max int64
	Mean     float64
	Isolated int64 // vertices with degree zero
}

// Stats computes degree statistics for the graph.
func (g *CSR) Stats() DegreeStats {
	if g.NumVerts == 0 {
		return DegreeStats{}
	}
	st := DegreeStats{Min: g.Degree(0)}
	var sum int64
	for v := int64(0); v < g.NumVerts; v++ {
		d := g.Degree(v)
		sum += d
		if d < st.Min {
			st.Min = d
		}
		if d > st.Max {
			st.Max = d
		}
		if d == 0 {
			st.Isolated++
		}
	}
	st.Mean = float64(sum) / float64(g.NumVerts)
	return st
}

// RelabelEdges applies the vertex permutation perm to an edge list in
// place: vertex v becomes perm[v]. Random relabeling prior to partitioning
// is the paper's load-balancing strategy (Section 4.4).
func RelabelEdges(el *EdgeList, perm []int64) error {
	if int64(len(perm)) != el.NumVerts {
		return fmt.Errorf("graph: permutation length %d != vertex count %d", len(perm), el.NumVerts)
	}
	for i := range el.Edges {
		el.Edges[i].U = perm[el.Edges[i].U]
		el.Edges[i].V = perm[el.Edges[i].V]
	}
	return nil
}
