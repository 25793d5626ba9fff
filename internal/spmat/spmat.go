// Package spmat implements the sparse-matrix storage and the sparse
// matrix-sparse vector product (SpMSV) at the heart of the 2D BFS
// (Algorithm 3). Two column-oriented formats are provided:
//
//   - CSC: classic compressed sparse columns, O(ncols + nnz) storage.
//     Adequate for local blocks of 1D-partitioned matrices.
//   - DCSC: doubly-compressed sparse columns (Buluç & Gilbert 2008),
//     O(nzc + nnz) storage where nzc is the number of nonempty columns.
//     This is the paper's choice for the hypersparse blocks that arise
//     from 2D partitioning, where a CSC column-pointer array per block
//     would cost O(n·√p + m) aggregate instead of O(m) (Section 4.1).
//
// Matrices here are boolean (pattern-only): an entry (r,c) means "column
// vertex c has an edge to row vertex r" in the pre-transposed adjacency
// convention of the paper, so SpMSV with a frontier over columns yields
// the next frontier over rows.
package spmat

import (
	"fmt"

	"repro/internal/graph"
)

// Triple is a matrix nonzero at (Row, Col).
type Triple struct {
	Row, Col int64
}

// CSC is a compressed sparse column pattern matrix.
type CSC struct {
	Rows, Cols int64
	ColPtr     []int64 // len Cols+1
	RowInd     []int64 // len nnz, sorted within each column
}

// NewCSC builds a CSC from triples. Duplicate entries are collapsed.
func NewCSC(rows, cols int64, ts []Triple) (*CSC, error) {
	g, err := columnCSR(rows, cols, ts)
	if err != nil {
		return nil, err
	}
	for i := range g.Adj {
		g.Adj[i] -= cols
	}
	return &CSC{Rows: rows, Cols: cols, ColPtr: g.XAdj[:cols+1], RowInd: g.Adj}, nil
}

// NNZ returns the number of stored nonzeros.
func (m *CSC) NNZ() int64 { return int64(len(m.RowInd)) }

// ColRows returns the sorted row indices of column c.
func (m *CSC) ColRows(c int64) []int64 {
	return m.RowInd[m.ColPtr[c]:m.ColPtr[c+1]]
}

// DCSC is a doubly-compressed sparse column pattern matrix: JC lists the
// nonempty columns (sorted), CP[i]:CP[i+1] brackets the rows of column
// JC[i] within IR.
type DCSC struct {
	Rows, Cols int64
	JC         []int64 // nonempty column ids, sorted, len nzc
	CP         []int64 // len nzc+1
	IR         []int64 // row ids, len nnz, sorted within each column
}

// NewDCSC builds a DCSC from triples. Duplicate entries are collapsed.
func NewDCSC(rows, cols int64, ts []Triple) (*DCSC, error) {
	rs, err := NewRowSplit(rows, cols, ts, 1)
	if err != nil {
		return nil, err
	}
	return rs.Strips[0], nil
}

// NNZ returns the number of stored nonzeros.
func (m *DCSC) NNZ() int64 { return int64(len(m.IR)) }

// NZC returns the number of nonempty columns.
func (m *DCSC) NZC() int64 { return int64(len(m.JC)) }

// colRowsAt returns the row indices of the j-th nonempty column.
func (m *DCSC) colRowsAt(j int) []int64 {
	return m.IR[m.CP[j]:m.CP[j+1]]
}

// StorageWords returns the number of 64-bit words the structure occupies,
// used by tests to verify the O(nzc+nnz) vs O(cols+nnz) claims.
func (m *DCSC) StorageWords() int64 {
	return int64(len(m.JC) + len(m.CP) + len(m.IR))
}

// StorageWords returns the number of 64-bit words of the CSC structure.
func (m *CSC) StorageWords() int64 {
	return int64(len(m.ColPtr) + len(m.RowInd))
}

func checkTriples(rows, cols int64, ts []Triple) error {
	if rows < 0 || cols < 0 {
		return fmt.Errorf("spmat: negative dimensions %dx%d", rows, cols)
	}
	for _, t := range ts {
		if t.Row < 0 || t.Row >= rows || t.Col < 0 || t.Col >= cols {
			return fmt.Errorf("spmat: entry (%d,%d) outside %dx%d", t.Row, t.Col, rows, cols)
		}
	}
	return nil
}

// columnCSR stores triples as a deduplicated graph.CSR whose row c
// holds column c's row indices, sorted. Row r is numbered cols+r, after
// the columns, so no entry is a self-loop and BuildCSR's dedup removes
// exactly the repeated entries.
func columnCSR(rows, cols int64, ts []Triple) (*graph.CSR, error) {
	if err := checkTriples(rows, cols, ts); err != nil {
		return nil, err
	}
	el := &graph.EdgeList{NumVerts: cols + rows, Edges: make([]graph.Edge, len(ts))}
	for i, t := range ts {
		el.Edges[i] = graph.Edge{U: t.Col, V: cols + t.Row}
	}
	return graph.BuildCSR(el, true)
}
