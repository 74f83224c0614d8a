package par

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"

	"twolayer/internal/faults"
	"twolayer/internal/network"
	"twolayer/internal/regime"
	"twolayer/internal/sim"
	"twolayer/internal/topology"
	"twolayer/internal/trace"
)

// runtime ties one run together: the kernel, the network, the per-rank
// environments and the run-wide pools and counters.
type runtime struct {
	topo   *topology.Topology
	k      *sim.Kernel
	net    *network.Network
	envs   []*Env
	tracer trace.Sink
	rec    trace.OpSink // op-level recorder when Options.Trace implements it
	recSeq int64        // global send counter feeding Msg.seq stamps
	seed   int64
	rel    *relConfig // nil unless the reliable transport is active

	regime   *regime.Plan // nil unless a dynamic regime is active
	adaptive bool         // Options.Adaptive; meaningful only with a regime
	lossy    bool         // frames can actually be lost (faults or churn)

	// pend pools the envelopes of messages in flight on the direct (non-
	// reliable) path: a send stages {destination mailbox, message} here and
	// hands the network only the runtime (a sim.EventHandler) plus the slot
	// token, so the steady-state send->deliver cycle allocates nothing.
	// Slots are recycled through a free list (index+1 encoding; 0 = none).
	pend     []pendingMsg
	pendFree int32

	// relStats and relErrs are the reliable transport's protocol counters
	// and channel failures, reported in the run's Result.
	relStats trace.TransportStats
	relErrs  []error
}

// pendingMsg is one pooled in-flight message envelope.
type pendingMsg struct {
	mb   *mailbox
	m    Msg
	next int32
}

// stage places a message bound for mb into the delivery pool and returns
// its token for SendHandle.
func (rt *runtime) stage(mb *mailbox, m Msg) uint64 {
	var idx int32
	if rt.pendFree != 0 {
		idx = rt.pendFree - 1
		rt.pendFree = rt.pend[idx].next
	} else {
		rt.pend = append(rt.pend, pendingMsg{})
		idx = int32(len(rt.pend)) - 1
	}
	p := &rt.pend[idx]
	p.mb = mb
	p.m = m
	return uint64(idx)
}

// HandleEvent implements sim.EventHandler: the network's delivery event for
// a staged message fired. The envelope is recycled before the mailbox
// delivery runs (delivery may wake a process whose next send reuses it).
func (rt *runtime) HandleEvent(token uint64) {
	p := &rt.pend[token]
	mb, m := p.mb, p.m
	p.mb = nil
	p.m = Msg{}
	p.next = rt.pendFree
	rt.pendFree = int32(token) + 1
	rt.k.NoteProgress() // a message reaching a mailbox is application progress
	mb.deliver(m)
}

// rankNames caches the diagnostic process names ("rank0", "rank1", ...)
// shared by every run in a sweep, keeping string formatting out of the
// per-run spawn loop. Guarded by its own lock because sweeps run many
// simulations concurrently.
var rankNames struct {
	sync.RWMutex
	names []string
}

func rankName(r int) string {
	rankNames.RLock()
	if r < len(rankNames.names) {
		n := rankNames.names[r]
		rankNames.RUnlock()
		return n
	}
	rankNames.RUnlock()
	rankNames.Lock()
	defer rankNames.Unlock()
	for i := len(rankNames.names); i <= r; i++ {
		rankNames.names = append(rankNames.names, "rank"+strconv.Itoa(i))
	}
	return rankNames.names[r]
}

// Result summarizes a completed run.
type Result struct {
	// Elapsed is the virtual time at which the last processor finished.
	Elapsed sim.Time
	// PerProcFinish holds each rank's finish time.
	PerProcFinish []sim.Time
	// PerProcCompute holds each rank's accumulated compute time, for
	// utilization and load-balance analysis.
	PerProcCompute []sim.Time
	// WAN is the total wide-area traffic.
	WAN network.LinkStats
	// ClusterWANOut is per-cluster outgoing wide-area traffic (Figure 1).
	ClusterWANOut []network.LinkStats
	// Intra is total fast-network traffic.
	Intra network.IntraStats
	// Events is the number of simulator events fired, a measure of
	// simulation effort.
	Events uint64
	// Transport counts reliable-channel protocol activity: timeouts,
	// retransmissions, acks. Zero when fault injection is off.
	Transport trace.TransportStats
	// Faults counts the wide-area faults the network injected. Zero when
	// fault injection is off.
	Faults network.FaultStats
}

// Speedup returns sequentialTime / Elapsed.
func (r Result) Speedup(sequential sim.Time) float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(sequential) / float64(r.Elapsed)
}

// Run executes job on every processor of topo over a network with the given
// parameters and seed for the per-rank random streams. It returns when all
// processors have finished. A deadlock in the simulated program is returned
// as an error. For traced or network-extended runs, see RunWith.
func Run(topo *topology.Topology, params network.Params, seed int64, job Job) (Result, error) {
	return runSim(nil, topo, Options{Params: params, Seed: seed}, job)
}

// msgKind maps the network's message class to the trace vocabulary (trace
// cannot import network, so the mirror enums are bridged here).
func msgKind(c network.MsgClass) trace.MsgKind {
	switch c {
	case network.ClassRetrans:
		return trace.KindRetrans
	case network.ClassAck:
		return trace.KindAck
	}
	return trace.KindData
}

func runSim(ctx context.Context, topo *topology.Topology, opts Options, job Job) (Result, error) {
	if err := opts.Faults.Validate(); err != nil {
		return Result{}, fmt.Errorf("par: invalid fault parameters: %w", err)
	}
	if err := opts.Regime.Validate(); err != nil {
		return Result{}, fmt.Errorf("par: invalid regime parameters: %w", err)
	}
	// Bind the regime once against the run's wide-area graph; the plan is
	// immutable and every query a pure function of virtual time. NewPlan's
	// default clique is built with the same deterministic constructor the
	// network uses, so edge IDs agree.
	var rplan *regime.Plan
	if opts.Regime.Enabled() {
		var err error
		rplan, err = regime.NewPlan(opts.Regime, opts.WAN, topo.Clusters())
		if err != nil {
			return Result{}, fmt.Errorf("par: invalid regime parameters: %w", err)
		}
	}
	rt := &runtime{topo: topo, tracer: opts.Trace, seed: opts.Seed,
		regime: rplan, adaptive: opts.Adaptive && rplan != nil,
		lossy: opts.Faults.Enabled() || (rplan != nil && rplan.HasChurn())}
	if rec, ok := opts.Trace.(trace.OpSink); ok {
		// Op-level recording relies on every Env.Send producing exactly one
		// observer callback, in send-call order, with uniform link speeds.
		// Fault injection and the reliable transport multiply or drop
		// messages; Configure may install per-pair speeds or variability the
		// replay model cannot see. Refuse rather than record a graph whose
		// replay would silently diverge.
		if opts.Faults.Enabled() || opts.Transport.Enabled {
			return Result{}, errors.New("par: op-level recording requires a fault-free run without the reliable transport")
		}
		if rplan != nil {
			// A regime's link speeds vary with virtual time; the replay model
			// assumes stationary speeds per link.
			return Result{}, errors.New("par: op-level recording requires stationary network conditions (no regime)")
		}
		if opts.Configure != nil {
			return Result{}, errors.New("par: op-level recording cannot observe Configure network extensions")
		}
		if opts.WAN != nil && !opts.WAN.IsClique() {
			// The replay model charges one wide-area leg per cross-cluster
			// message; multi-hop routes and forwarding contention are
			// invisible to it.
			return Result{}, errors.New("par: op-level recording requires the default clique wide-area graph")
		}
		rt.rec = rec
	}
	if opts.Faults.Enabled() || opts.Transport.Enabled || (rplan != nil && rplan.NeedsTransport()) {
		rt.rel = &relConfig{
			Transport: opts.Transport.withDefaults(),
			rtoBase:   rtoBase(opts.Params),
		}
	}
	rt.k = sim.NewKernel()
	rt.net = network.NewWithWAN(rt.k, topo, opts.Params, opts.WAN)
	if opts.Configure != nil {
		opts.Configure(rt.net)
	}
	if opts.Trace != nil {
		tr := opts.Trace
		rt.net.SetObserver(func(ev network.MessageEvent) {
			tr.RecordMessage(trace.Message{
				Src: ev.Src, Dst: ev.Dst, Bytes: ev.Bytes,
				Sent: ev.Sent, Delivered: ev.Delivered, WAN: ev.WAN,
				Kind: msgKind(ev.Class), Dup: ev.Duplicate, Dropped: ev.Dropped,
			})
		})
	}
	if opts.Faults.Enabled() {
		rt.net.SetFaults(faults.NewPlan(opts.Faults))
	}
	rt.net.SetRegime(rplan)
	rt.envs = make([]*Env, topo.Procs())
	procs := make([]*sim.Proc, topo.Procs())
	for r := 0; r < topo.Procs(); r++ {
		e := &Env{rt: rt, rank: r}
		rt.envs[r] = e
		procs[r] = rt.k.Spawn(rankName(r), func(p *sim.Proc) {
			e.p = p
			job(e)
		})
	}
	// Subsystem diagnostics are rendered into the RunError of any abnormal
	// termination (deadlock, budget kill, watchdog trip, deadline); a
	// healthy run never invokes them.
	rt.k.AddDiagnostic("mailboxes", rt.mailboxDump)
	if rt.rel != nil {
		rt.k.AddDiagnostic("reliable-transport", rt.reliableDump)
	}
	rt.k.SetBudget(opts.Budget)
	err := rt.k.RunContext(ctx)
	var res Result
	if rt.rel != nil {
		res.Transport = rt.relStats
		if opts.Trace != nil {
			opts.Trace.RecordTransport(res.Transport)
		}
		if len(rt.relErrs) > 0 {
			// A failed reliable channel usually also deadlocks the program;
			// surface the root cause ahead of the secondary deadlock.
			err = errors.Join(append(rt.relErrs, err)...)
		}
	}
	res.Faults = rt.net.FaultStats()
	if err != nil {
		return res, err
	}
	res.PerProcFinish = make([]sim.Time, len(procs))
	res.PerProcCompute = make([]sim.Time, len(procs))
	for i, p := range procs {
		res.PerProcFinish[i] = p.FinishedAt()
		res.PerProcCompute[i] = p.ComputeTime()
		if p.FinishedAt() > res.Elapsed {
			res.Elapsed = p.FinishedAt()
		}
	}
	res.WAN = rt.net.TotalWAN()
	res.Intra = rt.net.Intra()
	res.Events = rt.k.EventsFired()
	res.ClusterWANOut = make([]network.LinkStats, topo.Clusters())
	for c := range res.ClusterWANOut {
		res.ClusterWANOut[c] = rt.net.ClusterWANOut(c)
	}
	return res, nil
}

// mailboxDump renders the backed-up mailboxes for abnormal-termination
// diagnostics: which ranks hold undelivered messages, and how many.
func (rt *runtime) mailboxDump() []string {
	const maxLines = 32
	var out []string
	backed := 0
	for r, e := range rt.envs {
		if n := e.mb.pending(); n > 0 {
			backed++
			if len(out) < maxLines {
				out = append(out, fmt.Sprintf("rank %d: %d undelivered message(s)", r, n))
			}
		}
	}
	if backed > maxLines {
		out = append(out, fmt.Sprintf("... %d more ranks with queued messages", backed-maxLines))
	}
	if backed == 0 {
		out = append(out, "all mailboxes empty")
	}
	return out
}

// reliableDump renders the go-back-N state for abnormal-termination
// diagnostics: protocol counters, then every channel with unacked frames or
// retries in progress.
func (rt *runtime) reliableDump() []string {
	const maxLines = 32
	out := []string{fmt.Sprintf(
		"stats: timeouts=%d retransmits=%d acks=%d duplicates=%d out-of-order=%d",
		rt.relStats.Timeouts, rt.relStats.Retransmits, rt.relStats.Acks,
		rt.relStats.Duplicates, rt.relStats.OutOfOrder)}
	busy := 0
	for _, e := range rt.envs {
		for _, s := range e.relS {
			if s == nil || (len(s.window) == 0 && s.retries == 0 && !s.failed) {
				continue
			}
			busy++
			if len(out) < maxLines+1 {
				state := ""
				if s.failed {
					state = " FAILED"
				}
				out = append(out, fmt.Sprintf(
					"channel %d->%d: window %d/%d unacked from seq %d, next %d, retries %d%s",
					s.e.rank, s.dst, len(s.window), rt.rel.Window, s.base, s.next, s.retries, state))
			}
		}
	}
	if busy > maxLines {
		out = append(out, fmt.Sprintf("... %d more channels with unacked frames", busy-maxLines))
	}
	return out
}

// Barrier tags use a reserved negative odd range so they never collide with
// application tags or RPC reply tags (negative even).
const (
	barrierUpTag   Tag = -1001
	barrierDownTag Tag = -1003
)

// binomialLowbit returns rank r's lowest set bit, or a value above n for
// the root, so that the binomial-tree helpers treat rank 0 as the top.
func binomialLowbit(r, n int) int {
	if r == 0 {
		top := 1
		for top < n {
			top <<= 1
		}
		return top
	}
	return r & -r
}

// Barrier synchronizes all processors with a flat binomial tree rooted at
// rank 0, ignoring cluster structure — the "uniform network" barrier the
// original applications were written with. Cluster-aware synchronization
// lives in package collective.
//
// In the binomial tree rooted at 0, parent(r) = r - lowbit(r) and the
// children of r are r+m for every power of two m below lowbit(r) with
// r+m < n.
func (e *Env) Barrier() {
	n := e.Size()
	r := e.rank
	lowbit := binomialLowbit(r, n)
	// Gather phase: receive from children (smallest subtree first, matching
	// the order they become ready), then report to the parent.
	for mask := 1; mask < lowbit && r+mask < n; mask <<= 1 {
		e.RecvFrom(r+mask, barrierUpTag)
	}
	if r != 0 {
		e.Send(r-lowbit, barrierUpTag, nil, 16)
	}
	// Release phase: receive from parent, then fan out to children from the
	// largest subtree down so deep subtrees start early.
	if r != 0 {
		e.RecvFrom(r-lowbit, barrierDownTag)
	}
	for mask := lowbit >> 1; mask >= 1; mask >>= 1 {
		if r+mask < n {
			e.Send(r+mask, barrierDownTag, nil, 16)
		}
	}
}
