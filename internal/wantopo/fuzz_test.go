package wantopo

import "testing"

// FuzzWANSpec: any spec Parse accepts, for any cluster count in [2, 64],
// must yield a routable graph — every ordered pair of distinct clusters has
// a route, each route's edges chain from source to destination, and no
// route is longer than MaxHops. Rejected specs must fail with an error,
// never a panic.
func FuzzWANSpec(f *testing.F) {
	for _, spec := range []string{
		"", "clique", "ring", "torus:4x4", "torus:2x2x4", "torus2", "torus3",
		"circulant", "circulant:1,5", "fattree:4", "minmpl:4", "minmpl:4:7",
		// Malformed or unsatisfiable.
		"mesh", "torus:3x3", "torus:x", "torus:0x16", "torus:-4x-4",
		"circulant:0", "circulant:9", "circulant:,", "fattree:0", "fattree:-2",
		"minmpl:3", "minmpl:x", "minmpl:4:x", "clique:2", "ring:4", ":",
	} {
		f.Add(spec, uint8(14))
	}
	f.Fuzz(func(t *testing.T, spec string, n uint8) {
		clusters := 2 + int(n)%63
		w, err := Parse(spec, clusters)
		if err != nil {
			return
		}
		if w.Clusters() != clusters {
			t.Fatalf("Parse(%q, %d) built %d clusters", spec, clusters, w.Clusters())
		}
		for s := 0; s < clusters; s++ {
			for d := 0; d < clusters; d++ {
				if s == d {
					continue
				}
				route := w.Route(s, d)
				if len(route) == 0 {
					t.Fatalf("%s on %d clusters: no route %d->%d", w.Spec(), clusters, s, d)
				}
				if len(route) > w.MaxHops() {
					t.Fatalf("%s on %d clusters: route %d->%d has %d hops, MaxHops %d",
						w.Spec(), clusters, s, d, len(route), w.MaxHops())
				}
				at := s
				for _, id := range route {
					e := w.Edge(int(id))
					if e.Src != at {
						t.Fatalf("%s on %d clusters: route %d->%d: edge %d->%d does not chain from %d",
							w.Spec(), clusters, s, d, e.Src, e.Dst, at)
					}
					at = e.Dst
				}
				if at != d {
					t.Fatalf("%s on %d clusters: route %d->%d ends at %d", w.Spec(), clusters, s, d, at)
				}
			}
		}
	})
}
