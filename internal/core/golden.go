package core

import "twolayer/internal/sim"

// GoldenRun pins the exact observable outcome of one Tiny-scale run on the
// DAS shape at the 3.3 ms / 0.95 MB/s wide-area setting. The values were
// captured from the original heap-scheduler, goroutine-handoff kernel; the
// ladder queue, coroutine processes, deferred ready dispatch, and every
// kernel rewrite or cache introduced since must reproduce them bit for
// bit. Any change here is a determinism regression, not a tolerance issue.
//
// The table is exported (rather than living in the test file) because the
// persistent run cache folds a hash of it into its code fingerprint: an
// intentional golden update — the only sanctioned way simulation outputs
// change — automatically invalidates every on-disk result.
type GoldenRun struct {
	App       string
	Optimized bool
	Elapsed   sim.Time
	Events    uint64
	WANMsgs   int64
	WANBytes  int64
}

// GoldenRuns lists every application variant's pinned outcome.
var GoldenRuns = []GoldenRun{
	{"Water", false, 124112380, 6112, 2304, 208512},
	{"Water", true, 18148456, 5076, 248, 29824},
	{"Barnes-Hut", false, 118358410, 8968, 3108, 263544},
	{"Barnes-Hut", true, 29838992, 8224, 1728, 198456},
	{"TSP", false, 10833986, 253, 72, 1920},
	{"TSP", true, 13815532, 313, 60, 1344},
	{"ASP", false, 291657808, 4732, 536, 105088},
	{"ASP", true, 27694596, 4726, 147, 32304},
	{"Awari", false, 348847389, 48764, 17802, 287370},
	{"Awari", true, 202126821, 19140, 2346, 40074},
	{"FFT", false, 15966836, 6032, 2304, 82944},
}

// MultiHopGoldenRun pins one run on a multi-hop wide-area graph, where a
// cross-cluster message is forwarded through intermediate gateways and
// every hop is booked in kernel execution order of the send calls. All rows
// run Water/opt at Tiny scale on 8 clusters of 2 at 3.3 ms / 0.95 MB/s;
// Faulted rows inject 2% drops and 1% duplicates (fault seed 7), and Regime
// names a regime spec run with seed 7. Like GoldenRuns, the table is hashed
// into the run cache's code fingerprint.
type MultiHopGoldenRun struct {
	WAN      string
	Faulted  bool
	Regime   string
	Elapsed  sim.Time
	Events   uint64
	WANMsgs  int64
	WANBytes int64
}

// MultiHopGoldenRuns lists the pinned multi-hop outcomes. The fault-free
// rows equal the values of the retired windowed engine; the faulted
// torus and circulant rows moved when hops began to be booked in kernel
// order (see DESIGN.md §5i).
var MultiHopGoldenRuns = []MultiHopGoldenRun{
	{"ring", false, "", 109397044, 1400, 576, 119808},
	{"ring", true, "", 388348358, 3790, 4312, 485840},
	{"torus:4x2", false, "", 57706835, 1400, 416, 87040},
	{"torus:4x2", true, "", 78669546, 2519, 1613, 181944},
	{"circulant:1,3", false, "", 40290273, 1400, 352, 73472},
	{"circulant:1,3", true, "", 63897251, 2268, 1163, 131016},
	{"fattree:4", false, "", 64056636, 1400, 768, 160512},
	{"fattree:4", true, "", 77933082, 2583, 3047, 343424},
	{"torus:4x2", false, "congestion:8:6:30ms", 151979708, 1400, 416, 87040},
}
