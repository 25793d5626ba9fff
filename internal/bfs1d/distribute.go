package bfs1d

import (
	"fmt"
	"sync"

	"repro/internal/graph"
)

// LocalGraph is one rank's share of the distributed graph: a CSR over the
// rank's owned vertices (rows indexed locally) whose adjacency entries
// are global vertex ids.
type LocalGraph struct {
	XAdj []int64 // len Count+1
	Adj  []int64 // global ids, sorted per row
}

// NumEdges returns the number of adjacency slots stored locally.
func (lg *LocalGraph) NumEdges() int64 { return int64(len(lg.Adj)) }

// Graph is a 1D-distributed graph: the partition plus each rank's local
// CSR. It is built once and shared (read-only) by all rank goroutines,
// the same way an MPI job holds its local subgraph in process memory.
type Graph struct {
	Part   Part1D
	Locals []*LocalGraph
	// TotalAdj is the total number of stored adjacency slots across all
	// ranks, the m̂ the direction-switching heuristic measures unexplored
	// work against.
	TotalAdj int64
	// Symmetric declares that the edge list held both directions of
	// every edge (a symmetrized/undirected graph), letting Ins alias the
	// push CSRs instead of building an O(m) transpose. Set it before the
	// first non-top-down Run; Distribute cannot infer it.
	Symmetric bool

	// el is retained so the in-adjacency (the bottom-up phase's pull
	// structure) can be built lazily on first use.
	el     *graph.EdgeList
	inOnce sync.Once
	ins    []*LocalGraph
}

// Distribute partitions an edge list among p ranks by edge source owner.
// Self-loops are dropped and duplicate adjacencies collapsed, matching
// the paper's static CSR construction (Section 4.1).
func Distribute(el *graph.EdgeList, p int) (*Graph, error) {
	pt := Part1D{N: el.NumVerts, P: p}
	if err := pt.Validate(); err != nil {
		return nil, err
	}
	csr, err := graph.BuildCSR(el, true)
	if err != nil {
		return nil, fmt.Errorf("bfs1d: %w", err)
	}
	return &Graph{Part: pt, Locals: carve(csr, pt), TotalAdj: csr.NumEdges(), el: el}, nil
}

// carve cuts a deduplicated CSR into the ranks' local graphs: rank r's
// LocalGraph is the row range [Start(r), End(r)) with its row pointers
// rebased, its adjacency a subslice of the CSR's.
func carve(csr *graph.CSR, pt Part1D) []*LocalGraph {
	locals := make([]*LocalGraph, pt.P)
	for r := range locals {
		rows := csr.XAdj[pt.Start(r) : pt.End(r)+1]
		xadj := make([]int64, len(rows))
		for i, x := range rows {
			xadj[i] = x - rows[0]
		}
		lo, hi := rows[0], rows[len(rows)-1]
		locals[r] = &LocalGraph{XAdj: xadj, Adj: csr.Adj[lo:hi:hi]}
	}
	return locals
}

// Ins returns the per-rank in-adjacency CSRs used by the bottom-up
// phase, building them on first call (outside any timed region: like
// Distribute itself, the pull structure is static per graph). Row v of
// rank Owner(v) holds the sources u of edges u -> v. For a Symmetric
// graph the in-adjacency is the push CSR itself and no copy is made.
// Safe for concurrent callers.
func (g *Graph) Ins() []*LocalGraph {
	g.inOnce.Do(func() {
		if g.Symmetric {
			g.ins = g.Locals
			return
		}
		rev := &graph.EdgeList{NumVerts: g.el.NumVerts, Edges: make([]graph.Edge, len(g.el.Edges))}
		for i, e := range g.el.Edges {
			rev.Edges[i] = graph.Edge{U: e.V, V: e.U}
		}
		// Distribute already range-checked these edges.
		csr, _ := graph.BuildCSR(rev, true)
		g.ins = carve(csr, g.Part)
	})
	return g.ins
}

// Neighbors returns the global adjacency ids of local vertex u on the
// given local graph.
func (lg *LocalGraph) Neighbors(u int64) []int64 {
	return lg.Adj[lg.XAdj[u]:lg.XAdj[u+1]]
}
