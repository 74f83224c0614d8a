// Package wantopo models the wide-area layer of the two-layer machine as an
// explicit graph instead of the paper's implicit clique. The paper's testbed
// fully connects its four clusters, so every cross-cluster message takes
// exactly one wide-area hop; real wide-area fabrics — the 3D tori of APENet,
// the circulant and minimal-mean-path-length graphs of Deng, Huang et al.
// (see PAPERS.md) — are sparse, and a message may have to be forwarded
// through intermediate gateways. This package provides deterministic
// generators for such graphs, all-pairs shortest-path routes with
// deterministic tie-breaking, and the derived metrics (diameter, mean path
// length, bisection link count) the topology study reports.
//
// A WAN value is immutable after construction and safe to share between
// concurrent simulations; the network layer holds per-link mutable state
// (FIFO occupancy, traffic counters) itself, indexed by this package's edge
// ids.
//
// Graph nodes 0..Clusters-1 are the cluster gateways. Generators may add
// relay nodes (pure switches that host no processors — the fat tree's pod
// and core switches) numbered Clusters..Nodes-1; routes always start and
// end at cluster nodes but may pass through relays.
package wantopo

import (
	"fmt"
	"sort"
)

// Edge is one directed wide-area link. Latency and bandwidth are expressed
// as scale factors applied to the experiment's swept wide-area parameters
// (network.Params.WANLatency / WANBandwidth), so a sweep over the paper's
// axes moves every link together while preserving the graph's relative
// heterogeneity. Generated graphs use scale 1 except where noted (the fat
// tree's upper links are proportionally fatter).
type Edge struct {
	Src, Dst int
	// LatScale multiplies the base wide-area latency on this link.
	LatScale float64
	// BWScale multiplies the base wide-area bandwidth on this link.
	BWScale float64
}

// WAN is an immutable wide-area graph with precomputed routes and metrics.
// Build one with a generator (Clique, Ring, Torus, Circulant, FatTree,
// MinMPL) or Parse.
type WAN struct {
	spec     string
	clusters int
	nodes    int

	// edges are sorted by (Src, Dst); rowStart[v]..rowStart[v+1] delimits
	// node v's outgoing edges, so an edge id minus its row start is the
	// offset the network layer uses for lazily allocated per-row link state.
	edges    []Edge
	rowStart []int32

	// routes[routeOff[s*clusters+d] : routeOff[s*clusters+d+1]] is the edge
	// sequence of the chosen shortest path from cluster s to cluster d
	// (empty for s == d).
	routes   []int32
	routeOff []int32

	diameter  int
	maxHops   int
	meanPath  float64
	bisection int
}

// Spec returns the canonical textual form of the graph ("clique",
// "torus:4x4", "circulant:1,5", ...), the form Parse accepts and the
// topology study reports.
func (w *WAN) Spec() string { return w.spec }

// CacheKey returns the graph's contribution to a run's cache identity: ""
// for the default clique — keeping every pre-topology cache entry and golden
// byte-identical — and the canonical spec otherwise.
func (w *WAN) CacheKey() string {
	if w == nil || w.IsClique() {
		return ""
	}
	return w.spec
}

// IsClique reports whether the graph is the fully connected mesh the paper
// models (every cross-cluster route a single hop on a unit-scale link).
func (w *WAN) IsClique() bool { return w.spec == "clique" }

// Clusters returns the number of cluster (gateway) nodes.
func (w *WAN) Clusters() int { return w.clusters }

// Nodes returns the total node count including relay switches.
func (w *WAN) Nodes() int { return w.nodes }

// NumEdges returns the number of directed links.
func (w *WAN) NumEdges() int { return len(w.edges) }

// Edge returns the i-th directed link.
func (w *WAN) Edge(i int) Edge { return w.edges[i] }

// RowStart returns the first edge id whose source is node v; edge ids
// [RowStart(v), RowStart(v+1)) all leave v, sorted by destination.
func (w *WAN) RowStart(v int) int { return int(w.rowStart[v]) }

// OutDegree returns the number of links leaving node v.
func (w *WAN) OutDegree(v int) int { return int(w.rowStart[v+1] - w.rowStart[v]) }

// EdgeBetween returns the id of the directed link a->b, if one exists.
func (w *WAN) EdgeBetween(a, b int) (int, bool) {
	lo, hi := int(w.rowStart[a]), int(w.rowStart[a+1])
	row := w.edges[lo:hi]
	i := sort.Search(len(row), func(i int) bool { return row[i].Dst >= b })
	if i < len(row) && row[i].Dst == b {
		return lo + i, true
	}
	return 0, false
}

// Route returns the edge ids of the chosen path from cluster s to cluster
// d, in traversal order; empty when s == d. The returned slice aliases the
// WAN's internal storage and must not be modified.
func (w *WAN) Route(s, d int) []int32 {
	i := s*w.clusters + d
	return w.routes[w.routeOff[i]:w.routeOff[i+1]]
}

// Hops returns the hop count of the chosen route from s to d.
func (w *WAN) Hops(s, d int) int {
	i := s*w.clusters + d
	return int(w.routeOff[i+1] - w.routeOff[i])
}

// Diameter returns the maximum hop count over all chosen cluster-to-cluster
// routes (1 on a clique).
func (w *WAN) Diameter() int { return w.diameter }

// MaxHops is Diameter under its routing-layer name: no chosen route has
// more hops, and a graph whose MaxHops exceeds 1 forwards some messages.
func (w *WAN) MaxHops() int { return w.maxHops }

// MeanPathLength returns the average hop count over all ordered distinct
// cluster pairs — the metric Deng, Huang et al. minimize.
func (w *WAN) MeanPathLength() float64 { return w.meanPath }

// BisectionLinks counts the directed links crossing the balanced bipartition
// of the clusters (ids below ceil(C/2) versus the rest; relay nodes side
// with their lowest-numbered cluster neighbor). On the paper's clique this
// grows quadratically with the cluster count — the effect behind the "more,
// smaller clusters" result — while sparse graphs grow it much more slowly.
func (w *WAN) BisectionLinks() int { return w.bisection }

// HopHistogram returns, indexed by hop count, how many ordered cluster
// routes have that length (index 0 counts nothing; self-routes are
// excluded). cmd/topo renders it.
func (w *WAN) HopHistogram() []int {
	h := make([]int, w.diameter+1)
	for s := 0; s < w.clusters; s++ {
		for d := 0; d < w.clusters; d++ {
			if s != d {
				h[w.Hops(s, d)]++
			}
		}
	}
	return h
}

// build assembles a WAN from a generator's edge set: it sorts and validates
// the edges, computes deterministic all-pairs routes, and derives the
// metrics. Every generator funnels through here.
func build(spec string, clusters, nodes int, edges []Edge) (*WAN, error) {
	if clusters < 1 {
		return nil, fmt.Errorf("wantopo: %d clusters", clusters)
	}
	if nodes < clusters {
		return nil, fmt.Errorf("wantopo: %d nodes for %d clusters", nodes, clusters)
	}
	for _, e := range edges {
		if e.Src < 0 || e.Src >= nodes || e.Dst < 0 || e.Dst >= nodes {
			return nil, fmt.Errorf("wantopo: edge %d->%d outside %d nodes", e.Src, e.Dst, nodes)
		}
		if e.Src == e.Dst {
			return nil, fmt.Errorf("wantopo: self-loop on node %d", e.Src)
		}
		if e.LatScale <= 0 || e.BWScale <= 0 {
			return nil, fmt.Errorf("wantopo: edge %d->%d has non-positive scale", e.Src, e.Dst)
		}
	}
	sorted := append([]Edge(nil), edges...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Src != sorted[j].Src {
			return sorted[i].Src < sorted[j].Src
		}
		return sorted[i].Dst < sorted[j].Dst
	})
	for i := 1; i < len(sorted); i++ {
		if sorted[i].Src == sorted[i-1].Src && sorted[i].Dst == sorted[i-1].Dst {
			return nil, fmt.Errorf("wantopo: duplicate edge %d->%d", sorted[i].Src, sorted[i].Dst)
		}
	}
	w := &WAN{spec: spec, clusters: clusters, nodes: nodes, edges: sorted}
	w.rowStart = make([]int32, nodes+1)
	for _, e := range sorted {
		w.rowStart[e.Src+1]++
	}
	for v := 0; v < nodes; v++ {
		w.rowStart[v+1] += w.rowStart[v]
	}
	if err := w.computeRoutes(); err != nil {
		return nil, err
	}
	w.computeMetrics()
	return w, nil
}

// computeRoutes runs a deterministic Dijkstra from every cluster node:
// shortest by summed latency scale, ties broken first by hop count and then
// by settling nodes in ascending id order, with neighbors relaxed in sorted
// edge order. The whole procedure is sequential and input-ordered, so the
// routes are byte-identical across runs and GOMAXPROCS values.
func (w *WAN) computeRoutes() error {
	c, n := w.clusters, w.nodes
	w.routeOff = make([]int32, c*c+1)
	dist := make([]float64, n)
	hops := make([]int32, n)
	prev := make([]int32, n) // edge id entering the node, -1 at the source
	done := make([]bool, n)

	var scratch []int32
	for s := 0; s < c; s++ {
		for v := range dist {
			dist[v] = -1 // unreached
			hops[v] = 0
			prev[v] = -1
			done[v] = false
		}
		dist[s] = 0
		for {
			// Deterministic selection: the unsettled reached node with the
			// smallest (dist, hops, id). O(V) per pick is plenty for the
			// graph sizes the study sweeps (hundreds of clusters).
			u := -1
			for v := 0; v < n; v++ {
				if done[v] || dist[v] < 0 {
					continue
				}
				if u == -1 || dist[v] < dist[u] ||
					(dist[v] == dist[u] && (hops[v] < hops[u] || (hops[v] == hops[u] && v < u))) {
					u = v
				}
			}
			if u == -1 {
				break
			}
			done[u] = true
			for e := int(w.rowStart[u]); e < int(w.rowStart[u+1]); e++ {
				ed := w.edges[e]
				nd := dist[u] + ed.LatScale
				nh := hops[u] + 1
				v := ed.Dst
				if dist[v] < 0 || nd < dist[v] || (nd == dist[v] && nh < hops[v]) {
					dist[v] = nd
					hops[v] = nh
					prev[v] = int32(e)
				}
			}
		}
		for d := 0; d < c; d++ {
			idx := s*c + d
			w.routeOff[idx] = int32(len(w.routes))
			if d == s {
				continue
			}
			if dist[d] < 0 {
				return fmt.Errorf("wantopo: %s: cluster %d unreachable from %d", w.spec, d, s)
			}
			scratch = scratch[:0]
			for v := d; v != s; {
				e := prev[v]
				scratch = append(scratch, e)
				v = w.edges[e].Src
			}
			for i := len(scratch) - 1; i >= 0; i-- {
				w.routes = append(w.routes, scratch[i])
			}
		}
	}
	w.routeOff[c*c] = int32(len(w.routes))
	return nil
}

// computeMetrics derives diameter, mean path length, bisection link count
// and the minimum latency scale from the chosen routes and the edge set.
func (w *WAN) computeMetrics() {
	c := w.clusters
	total, pairs := 0, 0
	for s := 0; s < c; s++ {
		for d := 0; d < c; d++ {
			if s == d {
				continue
			}
			h := w.Hops(s, d)
			if h > w.diameter {
				w.diameter = h
			}
			total += h
			pairs++
		}
	}
	if pairs > 0 {
		w.meanPath = float64(total) / float64(pairs)
	}
	w.maxHops = w.diameter

	// Bisection: clusters split into low/high id halves; a relay node sides
	// with its lowest-numbered cluster neighbor (transitively via relays if
	// it has none — the fat tree's core switch sides with pod switch 0's
	// side). This id-based cut matches the natural axis cut on the
	// generators' row-major numbering.
	side := make([]int8, w.nodes)
	half := (c + 1) / 2
	for v := 0; v < w.nodes; v++ {
		if v < c {
			if v >= half {
				side[v] = 1
			}
		} else {
			side[v] = -1
		}
	}
	for changed := true; changed; {
		changed = false
		for v := c; v < w.nodes; v++ {
			if side[v] >= 0 {
				continue
			}
			best := -1
			for e := int(w.rowStart[v]); e < int(w.rowStart[v+1]); e++ {
				u := w.edges[e].Dst
				if side[u] >= 0 && (best == -1 || u < best) {
					best = u
				}
			}
			if best >= 0 {
				side[v] = side[best]
				changed = true
			}
		}
	}
	for _, e := range w.edges {
		a, b := side[e.Src], side[e.Dst]
		if a >= 0 && b >= 0 && a != b {
			w.bisection++
		}
	}
}
