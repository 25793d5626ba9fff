package spmat

import (
	"repro/internal/graph"
	"repro/internal/spvec"
)

// Sym stores a symmetric boolean matrix as its strict upper triangle
// only, the storage-halving scheme the paper lists as future work
// ("Exploiting symmetry in undirected graphs ... one can save 50% space
// by storing only the upper (or lower) triangle", Section 7). Diagonal
// entries are dropped: self-loops never affect BFS.
//
// SpMSV over the full matrix decomposes into two passes over the stored
// triangle U: the ordinary column product U ⊗ f covers entries above the
// diagonal, and a transposed product Uᵀ ⊗ f — computed by intersecting
// each stored column's row list with the frontier — covers the mirrored
// entries below it. The two partial results merge under (select,max).
type Sym struct {
	Dim int64
	U   *DCSC // strict upper triangle: every entry has Row < Col
}

// NewSym builds symmetric triangle storage from triples. Entries are
// folded into the upper triangle ((r,c) with r > c becomes (c,r));
// diagonal entries are discarded; duplicates collapse.
func NewSym(dim int64, ts []Triple) (*Sym, error) {
	// Stored column max(r,c) lists rows min(r,c); BuildCSR rejects a
	// negative dim or out-of-range entry and drops the diagonal as
	// self-loops.
	el := &graph.EdgeList{NumVerts: dim, Edges: make([]graph.Edge, len(ts))}
	for i, t := range ts {
		el.Edges[i] = graph.Edge{U: max(t.Row, t.Col), V: min(t.Row, t.Col)}
	}
	g, err := graph.BuildCSR(el, true)
	if err != nil {
		return nil, err
	}
	return &Sym{Dim: dim, U: SplitCSR(g, 0, dim, 0, dim, 1).Strips[0]}, nil
}

// NNZ returns the number of stored (triangle) nonzeros; the represented
// matrix has twice as many.
func (s *Sym) NNZ() int64 { return s.U.NNZ() }

// StorageWords returns the 64-bit words occupied — roughly half of what
// the full symmetric matrix would need in DCSC form.
func (s *Sym) StorageWords() int64 { return s.U.StorageWords() }

// SpMSV computes dst = A ⊗ f over the (select,max) semiring for the full
// symmetric matrix A represented by the stored triangle.
func (s *Sym) SpMSV(dst *spvec.Vec, f *spvec.Vec, opts SpMSVOpts) *spvec.Vec {
	// Pass 1: the stored upper triangle as-is.
	var up spvec.Vec
	s.U.SpMSV(&up, f, opts)

	// Pass 2: the transposed triangle. For every stored column c, the
	// mirrored entries put column values at row positions: out[c] =
	// max over stored rows r of f(r). Both lists are sorted, so each
	// column costs a linear merge against the frontier.
	var down spvec.Vec
	for j, c := range s.U.JC {
		rows := s.U.colRowsAt(j)
		fi, ri := 0, 0
		var best int64
		found := false
		for fi < len(f.Ind) && ri < len(rows) {
			switch {
			case f.Ind[fi] < rows[ri]:
				fi++
			case f.Ind[fi] > rows[ri]:
				ri++
			default:
				if !found || f.Val[fi] > best {
					best = f.Val[fi]
					found = true
				}
				fi++
				ri++
			}
		}
		if found {
			down.Append(c, best)
		}
	}
	return spvec.Merge(dst, &up, &down)
}

// Work returns the matrix entries an SpMSV with frontier f touches,
// counting both triangle passes.
func (s *Sym) Work(f *spvec.Vec) int64 {
	work := s.U.Work(f)
	// The transposed pass scans every stored column's rows against the
	// frontier; charge the merge length.
	for j := range s.U.JC {
		work += int64(len(s.U.colRowsAt(j)))
	}
	return work
}
