package wl

import "fmt"

// BaseKernel selects the substructure counted at every WL iteration.
// The paper's kernel definition admits "a base kernel function, such as
// subtree or shortest path kernel" (§V-D); both are provided.
type BaseKernel int

const (
	// BaseSubtree counts refined node labels (the classic WL subtree
	// kernel) — the default and the paper's primary instrument.
	BaseSubtree BaseKernel = iota
	// BaseShortestPath counts (label_u, label_v, d(u, v)) triples over
	// directed shortest paths, recomputed under each iteration's
	// refined labels (the WL shortest-path kernel of Shervashidze et
	// al.). Distance-0 self pairs are included so single-task jobs
	// retain a non-empty feature vector.
	BaseShortestPath
	// BaseEdge counts (label_u, label_v) pairs over direct edges plus
	// plain node labels — the WL edge kernel, a middle ground between
	// subtree (nodes only) and shortest-path (all pairs). Node labels
	// are included so edge-free graphs keep non-empty vectors.
	BaseEdge
)

// String names the base kernel.
func (b BaseKernel) String() string {
	switch b {
	case BaseSubtree:
		return "subtree"
	case BaseShortestPath:
		return "shortest-path"
	case BaseEdge:
		return "edge"
	default:
		return fmt.Sprintf("base(%d)", int(b))
	}
}
