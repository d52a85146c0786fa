// Package radio models the motes' broadcast radio at the fidelity the
// EnviroMic protocols observe: single-hop broadcast within a communication
// range, independent per-receiver packet loss, transmission delay
// proportional to frame size, promiscuous overhearing (every frame in
// range is delivered to every powered-on radio regardless of addressee),
// and an explicit power switch — recorders turn the radio off entirely
// during a recording task because packet processing corrupts high-rate
// sampling (§III-B.1).
//
// The radio is also the only cross-node coupling in the model, which
// makes it the seam for sharded parallel execution (DESIGN.md §14): every
// delivery is scheduled at least Config.Lookahead() after its send, so
// shards can run that far ahead without synchronizing, and Send routes
// deliveries whose receivers live on another shard through the
// coordinator's deposit lanes.
package radio

import (
	"fmt"
	"math/rand"
	"time"

	"enviromic/internal/geometry"
	"enviromic/internal/obs"
	"enviromic/internal/sim"
	"enviromic/internal/telemetry"
)

// Broadcast is the addressee value meaning "all neighbors".
const Broadcast = -1

// Trace event kinds (see DESIGN.md §11): per-receiver delivery failures.
// Node = the receiver that missed the frame, Peer = sender, V1 = the
// payload's KindID (resolve with KindName).
var (
	evDropOff       = obs.RegisterEvent("radio.drop.off")
	evDropLoss      = obs.RegisterEvent("radio.drop.loss")
	evDropPartition = obs.RegisterEvent("radio.drop.partition")
)

// Payload is a protocol message body. Kind discriminates message types
// for the control-overhead accounting in Figs 12/14 — it returns the
// interned KindID obtained from RegisterKind, so per-message accounting
// and dispatch never touch the kind's string name; Size is the payload's
// on-air length in bytes, used for delay and energy.
type Payload interface {
	Kind() KindID
	Size() int
}

// maxInlinePiggyback is the piggyback count a Frame stores inline. The
// neighborhood broadcast layer bundles at most 4 payloads per frame, so
// the inline array covers every frame it emits without allocating.
const maxInlinePiggyback = 4

// Frame is one on-air transmission as seen by a receiver.
type Frame struct {
	From int
	// To is a node ID or Broadcast. Frames are delivered to every
	// powered-on radio in range regardless of To: upper layers use
	// overhearing deliberately (§II-A.2).
	To      int
	Payload Payload
	// Piggyback carries extra delay-tolerant payloads bundled by the
	// neighborhood broadcast layer (§III-A). Send copies the caller's
	// slice into frame-owned storage (inline up to 4 payloads), so
	// callers may reuse their ride buffers immediately.
	Piggyback []Payload
	pb        [maxInlinePiggyback]Payload
	// SentAt is the transmission start time.
	SentAt sim.Time
}

// TotalSize returns the frame's on-air size including piggybacked
// payloads and a fixed MAC header.
func (f *Frame) TotalSize() int {
	n := macHeader + f.Payload.Size()
	for _, p := range f.Piggyback {
		n += p.Size()
	}
	return n
}

// macHeader is the fixed per-frame overhead (802.15.4-ish), and therefore
// the minimum on-air size of any frame — part of the lookahead bound.
const macHeader = 11

// Handler receives frames delivered to an endpoint.
type Handler interface {
	HandleFrame(f *Frame)
}

// HandlerFunc adapts a function to Handler.
type HandlerFunc func(f *Frame)

// HandleFrame implements Handler.
func (fn HandlerFunc) HandleFrame(f *Frame) { fn(f) }

// ActivityListener is notified of radio activity on an endpoint. The mote
// model uses it to inject CPU-contention jitter into the ADC sampler
// (Fig 3): both transmitting and receiving steal cycles, and reception
// steals them even when the application layer ignores the packet.
type ActivityListener interface {
	RadioActivity(kind ActivityKind, dur time.Duration)
}

// ActivityKind distinguishes transmit from receive work.
type ActivityKind int

// Radio activity kinds.
const (
	ActivityTx ActivityKind = iota + 1
	ActivityRx
)

// Config holds network-wide radio parameters.
type Config struct {
	// CommRange is the broadcast radius in deployment units. The paper
	// recommends a communication range larger than the sensing range so
	// one-hop election suppresses most redundancy (§II-A.1).
	CommRange float64
	// LossProb is the independent per-receiver frame loss probability.
	LossProb float64
	// ByteTime is the on-air time per byte (250 kbps 802.15.4 ≈ 32 µs).
	ByteTime time.Duration
	// TurnaroundDelay is fixed per-frame MAC/backoff latency.
	TurnaroundDelay time.Duration
	// Seed derives the per-node random streams (loss draws, and — via
	// Endpoint.Rand — every protocol layer's backoffs and jitter). Two
	// networks with the same Seed draw identically regardless of shard
	// count.
	Seed int64
	// BruteForce disables the spatial neighbor index and re-scans every
	// endpoint on each transmission, as the model originally did. The two
	// paths are bit-identical for a fixed seed (asserted by tests); this
	// switch exists as the reference implementation for those tests and
	// as an escape hatch for debugging the index. Incompatible with
	// sharded execution.
	BruteForce bool
}

// Lookahead returns the minimum latency of any cross-node interaction:
// the fixed turnaround plus the air time of an empty frame. Every
// delivery event fires at least this long after its send, which is the
// conservative-synchronization bound sharded execution runs under.
func (c Config) Lookahead() time.Duration {
	return c.TurnaroundDelay + macHeader*c.ByteTime
}

// DefaultConfig mirrors a MicaZ-class mote running the 2006-era TinyOS
// stack. The 25 ms turnaround is OS/MAC queueing plus CSMA back-off, not
// raw CC2420 latency; it is calibrated so a TASK_REQUEST/TASK_CONFIRM
// exchange costs ~50 ms — the reason the paper's expected task assignment
// delay Dta needs to be ~70 ms (Fig 6).
func DefaultConfig(commRange float64) Config {
	return Config{
		CommRange:       commRange,
		LossProb:        0.05,
		ByteTime:        32 * time.Microsecond,
		TurnaroundDelay: 25 * time.Millisecond,
	}
}

// shardState is the per-shard slice of the network's mutable counters and
// scratch space. During a window each shard goroutine touches only its
// own entry; snapshots (Stats) merge the slices at a barrier. In serial
// mode there is exactly one.
type shardState struct {
	stats Stats
	// Per-kind and per-node transmission counters live in flat arrays
	// indexed by KindID and node ID — the per-Send increment is a bounds
	// check and an add, no map hashing. They are converted to the
	// name-keyed maps of Stats only at snapshot time.
	txByKind []uint64 // [KindID]count
	txByNode []uint64 // [nodeID]frames
	// scratch is the reusable candidate buffer for neighbor rebuilds.
	scratch []int
	// pad spaces adjacent shardStates apart so the per-Send counter
	// increments of different shards do not share a cache line.
	_ [64]byte
}

// countTx records one transmitted payload of the given kind.
func (st *shardState) countTx(kind KindID) {
	st.txByKind = growKind(st.txByKind, kind)
	st.txByKind[kind]++
}

// Network is the shared medium connecting all endpoints of one scenario.
type Network struct {
	cfg   Config
	sched *sim.Scheduler
	eps   map[int]*Endpoint
	// byID holds every endpoint in ascending node-ID order; it backs both
	// the spatial index and the deterministic receiver iteration.
	byID []*Endpoint

	// sh holds the per-shard counters and scratch (one entry in serial
	// mode). shards/shardOf are nil unless SetSharding was called.
	sh      []shardState
	shards  *sim.Shards
	shardOf func(id int) int

	// epoch counts topology changes (Join, SetPos, Kill). Cached neighbor
	// lists and the cell grid are tagged with the epoch they were built at
	// and rebuilt lazily when it moves on — this is what keeps the data
	// mule's relocations correct. Under sharded execution topology may
	// only change on the global lane, and EnsureIndex runs at every
	// barrier, so shard goroutines never observe a stale grid.
	epoch     uint64
	grid      *geometry.CellIndex
	gridEpoch uint64

	// blocked holds directed (sender, receiver) pairs suppressed by a
	// chaos partition overlay, keyed sender<<32|receiver. Nil when no
	// partition is active, so the delivery hot path pays one nil check.
	blocked map[uint64]struct{}

	// tr, when non-nil, receives per-receiver drop events (serial mode).
	// trs, when non-nil, is the per-shard tracer set (sharded mode).
	tr  *obs.Tracer
	trs []*obs.Tracer

	// metrics, when non-nil, holds lane-sharded telemetry counters; each
	// shard bumps its own cache line (SetMetrics).
	metrics *radioMetrics
}

// radioMetrics is the network's telemetry hookup. Counters are
// lane-sharded to the shard count, so the Send/deliver hot paths pay one
// uncontended atomic add when telemetry is on and a nil check when off.
type radioMetrics struct {
	txFrames      *telemetry.Counter
	txBytes       *telemetry.Counter
	delivered     *telemetry.Counter
	dropOff       *telemetry.Counter
	dropLoss      *telemetry.Counter
	dropPartition *telemetry.Counter
}

// SetMetrics attaches telemetry counters to the network. Call it after
// SetSharding so the counter lanes match the shard count; a nil registry
// leaves the network untouched.
func (n *Network) SetMetrics(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	lanes := len(n.sh)
	drop := func(cause string) *telemetry.Counter {
		return reg.CounterN("enviromic_radio_drops_total",
			"Frame receptions dropped, by cause.", lanes, telemetry.L("cause", cause))
	}
	n.metrics = &radioMetrics{
		txFrames: reg.CounterN("enviromic_radio_tx_frames_total",
			"Frames transmitted.", lanes),
		txBytes: reg.CounterN("enviromic_radio_tx_bytes_total",
			"Frame bytes transmitted, headers included.", lanes),
		delivered: reg.CounterN("enviromic_radio_rx_delivered_total",
			"Frame receptions delivered to a listening radio.", lanes),
		dropOff:       drop("radio_off"),
		dropLoss:      drop("loss"),
		dropPartition: drop("partition"),
	}
}

// Stats aggregates transmission counts for the overhead figures. The
// maps are the external, name-keyed view; internally the network counts
// into KindID-indexed arrays and materializes these maps in Stats().
type Stats struct {
	// TxByKind counts transmitted frames by payload kind (piggybacked
	// payloads count as their own kind but not as frames).
	TxByKind map[string]uint64
	// TxByNode counts transmitted frames per sender.
	TxByNode map[int]uint64
	// Delivered and Lost count per-receiver delivery outcomes.
	Delivered, Lost uint64
	// DroppedRadioOff counts frames that found the receiver's radio off.
	DroppedRadioOff uint64
	// DroppedPartition counts frames suppressed by a chaos partition
	// overlay (SetLinkBlocked).
	DroppedPartition uint64
	// TotalFrames counts physical transmissions.
	TotalFrames uint64
	// TotalBytes counts on-air bytes.
	TotalBytes uint64
}

// NewNetwork creates an empty network on the given scheduler.
func NewNetwork(s *sim.Scheduler, cfg Config) *Network {
	if cfg.CommRange <= 0 {
		panic("radio: non-positive communication range")
	}
	if cfg.LossProb < 0 || cfg.LossProb >= 1 {
		panic(fmt.Sprintf("radio: loss probability %v outside [0,1)", cfg.LossProb))
	}
	return &Network{
		cfg:   cfg,
		sched: s,
		eps:   make(map[int]*Endpoint),
		sh:    make([]shardState, 1),
		epoch: 1,
	}
}

// SetSharding switches the network to sharded delivery: endpoints attach
// to the shard scheduler chosen by shardOf, per-shard counters replace
// the single set, and deliveries crossing shards go through the
// coordinator's deposit lanes. Must be called before any Join, and is
// incompatible with BruteForce (whose full rescan has no spatial
// locality to shard by).
func (n *Network) SetSharding(sh *sim.Shards, shardOf func(id int) int) {
	if len(n.eps) > 0 {
		panic("radio: SetSharding after Join")
	}
	if n.cfg.BruteForce {
		panic("radio: BruteForce is incompatible with sharded execution")
	}
	if sh.Lookahead() > n.cfg.Lookahead() {
		panic(fmt.Sprintf("radio: coordinator lookahead %v exceeds radio minimum latency %v",
			sh.Lookahead(), n.cfg.Lookahead()))
	}
	n.shards = sh
	n.shardOf = shardOf
	n.sh = make([]shardState, sh.N())
}

// growKind ensures the per-kind counter array covers id.
func growKind(a []uint64, id KindID) []uint64 {
	for int(id) >= len(a) {
		a = append(a, 0)
	}
	return a
}

// Stats returns a deep-copied snapshot of the accumulated counters,
// merging the per-shard slices and materializing the internal
// KindID/node-indexed arrays into the name-keyed maps external consumers
// (figures, EXPERIMENTS.md tables) render. Only kinds and nodes with
// non-zero counts appear. Under sharded execution this must run at a
// barrier (global lane or post-run) — it reads every shard's counters.
// The returned struct and its maps are owned by the caller.
func (n *Network) Stats() *Stats {
	var cp Stats
	var txByKind, txByNode []uint64
	for si := range n.sh {
		st := &n.sh[si]
		cp.Delivered += st.stats.Delivered
		cp.Lost += st.stats.Lost
		cp.DroppedRadioOff += st.stats.DroppedRadioOff
		cp.DroppedPartition += st.stats.DroppedPartition
		cp.TotalFrames += st.stats.TotalFrames
		cp.TotalBytes += st.stats.TotalBytes
	}
	if len(n.sh) == 1 {
		// Serial fast path: with one shard the internal arrays can be
		// read in place. Stats runs on every metrics sample, so skipping
		// the merge copies keeps the serial alloc profile unchanged.
		st := &n.sh[0]
		txByKind, txByNode = st.txByKind, st.txByNode
	} else {
		for si := range n.sh {
			st := &n.sh[si]
			txByKind = mergeCounts(txByKind, st.txByKind)
			txByNode = mergeCounts(txByNode, st.txByNode)
		}
	}
	nkinds := 0
	for _, v := range txByKind {
		if v != 0 {
			nkinds++
		}
	}
	cp.TxByKind = make(map[string]uint64, nkinds)
	for id, v := range txByKind {
		if v != 0 {
			cp.TxByKind[KindName(KindID(id))] = v
		}
	}
	nnodes := 0
	for _, v := range txByNode {
		if v != 0 {
			nnodes++
		}
	}
	cp.TxByNode = make(map[int]uint64, nnodes)
	for node, v := range txByNode {
		if v != 0 {
			cp.TxByNode[node] = v
		}
	}
	return &cp
}

// mergeCounts element-wise adds src into dst, growing dst as needed.
func mergeCounts(dst, src []uint64) []uint64 {
	if len(src) > len(dst) {
		grown := make([]uint64, len(src))
		copy(grown, dst)
		dst = grown
	}
	for i, v := range src {
		dst[i] += v
	}
	return dst
}

// Config returns the network configuration.
func (n *Network) Config() Config { return n.cfg }

// SetLossProb changes the per-receiver frame loss probability at runtime
// (chaos loss bursts). The new probability applies to frames sent from
// now on; frames already in flight carry the loss draws made when they
// were transmitted. Under sharded execution this must run on the global
// lane.
func (n *Network) SetLossProb(p float64) {
	if p < 0 || p >= 1 {
		panic(fmt.Sprintf("radio: loss probability %v outside [0,1)", p))
	}
	n.cfg.LossProb = p
}

// SetLinkBlocked installs or removes a directed partition edge: while
// blocked, frames from sender `from` are not delivered to receiver `to`
// (they count as DroppedPartition). Blocking is evaluated at delivery
// time, so frames in flight when the partition forms are also cut —
// an RF barrier, not a queue drop. Symmetric partitions block both
// directions with two calls. Under sharded execution this must run on
// the global lane.
func (n *Network) SetLinkBlocked(from, to int, blocked bool) {
	key := uint64(uint32(from))<<32 | uint64(uint32(to))
	if blocked {
		if n.blocked == nil {
			n.blocked = make(map[uint64]struct{})
		}
		n.blocked[key] = struct{}{}
		return
	}
	delete(n.blocked, key)
	if len(n.blocked) == 0 {
		n.blocked = nil // restore the nil-check fast path
	}
}

// linkBlocked reports whether the directed pair is partitioned. Callers
// check n.blocked != nil first.
func (n *Network) linkBlocked(from, to int) bool {
	_, ok := n.blocked[uint64(uint32(from))<<32|uint64(uint32(to))]
	return ok
}

// SetTracer installs the protocol tracer (nil disables tracing). Serial
// mode only — sharded runs install one tracer per shard.
func (n *Network) SetTracer(tr *obs.Tracer) { n.tr = tr }

// SetShardTracers installs one tracer per shard for sharded runs; drop
// events are emitted on the receiver's shard tracer.
func (n *Network) SetShardTracers(trs []*obs.Tracer) {
	if n.shards == nil || len(trs) != n.shards.N() {
		panic("radio: SetShardTracers requires sharding with matching count")
	}
	n.trs = trs
}

// trFor returns the tracer drop events on `shard` should go to.
func (n *Network) trFor(shard int) *obs.Tracer {
	if n.trs != nil {
		return n.trs[shard]
	}
	return n.tr
}

// Join registers a new endpoint at a fixed position. Node IDs must be
// unique and non-negative (Broadcast is reserved).
func (n *Network) Join(id int, pos geometry.Point) *Endpoint {
	if id < 0 {
		panic(fmt.Sprintf("radio: invalid node ID %d", id))
	}
	if _, dup := n.eps[id]; dup {
		panic(fmt.Sprintf("radio: duplicate node ID %d", id))
	}
	ep := &Endpoint{id: id, pos: pos, net: n, on: true, sched: n.sched}
	if n.shardOf != nil {
		ep.shard = n.shardOf(id)
		ep.sched = n.shards.Shard(ep.shard)
	}
	ep.rng = sim.NewNodeRand(n.cfg.Seed, id)
	n.eps[id] = ep
	// Insert in ascending ID order (deployments usually join in order, so
	// this is an append in practice).
	at := len(n.byID)
	for at > 0 && n.byID[at-1].id > id {
		at--
	}
	n.byID = append(n.byID, nil)
	copy(n.byID[at+1:], n.byID[at:])
	n.byID[at] = ep
	for i := at; i < len(n.byID); i++ {
		n.byID[i].ord = i
	}
	n.invalidate()
	return ep
}

// invalidate marks every cached neighbor list and the cell grid stale.
func (n *Network) invalidate() { n.epoch++ }

// buildGrid rebuilds the spatial index from current positions.
func (n *Network) buildGrid() {
	pts := make([]geometry.Point, len(n.byID))
	for i, ep := range n.byID {
		pts[i] = ep.pos
	}
	n.grid = geometry.BuildCellIndex(pts, n.cfg.CommRange)
	n.gridEpoch = n.epoch
}

// EnsureIndex rebuilds the spatial index if a topology change left it
// stale. The sharded coordinator calls this at every barrier so that
// shard goroutines — which may rebuild their endpoints' neighbor caches
// concurrently — only ever read an up-to-date, immutable grid.
func (n *Network) EnsureIndex() {
	if !n.cfg.BruteForce && n.gridEpoch != n.epoch && len(n.byID) > 0 {
		n.buildGrid()
	}
}

// neighborsOf returns the live endpoints within communication range of e
// in ascending ID order, excluding e itself and dead endpoints but
// including radio-off ones (power state is checked at delivery time,
// exactly like the original full scan; death is permanent, so dead nodes
// are pruned at enumeration and never drawn loss bits). The list is
// cached on the endpoint and rebuilt from the cell grid after a topology
// change — Kill and Revive both bump the epoch — and rebuilds allocate a
// fresh slice so in-flight delivery closures keep the receiver set that
// was in range when their frame was sent.
func (n *Network) neighborsOf(e *Endpoint) []*Endpoint {
	if e.nbEpoch == n.epoch {
		return e.neighbors
	}
	if n.gridEpoch != n.epoch {
		// Serial mode rebuilds lazily; under sharding EnsureIndex has
		// already run at the barrier (topology only changes there).
		n.buildGrid()
	}
	st := &n.sh[e.shard]
	cand := n.grid.Within(e.pos, n.cfg.CommRange, e.ord, st.scratch[:0])
	st.scratch = cand
	sortInts(cand) // byID positions ascending == node IDs ascending
	nb := make([]*Endpoint, 0, len(cand))
	for _, h := range cand {
		if ep := n.byID[h]; !ep.dead {
			nb = append(nb, ep)
		}
	}
	e.neighbors = nb
	e.nbEpoch = n.epoch
	return nb
}

// bruteReceivers is the pre-index receiver enumeration, kept as the
// reference path for Config.BruteForce and the equivalence tests.
func (n *Network) bruteReceivers(e *Endpoint) []*Endpoint {
	ids := make([]int, 0, len(n.eps))
	for id := range n.eps {
		if id != e.id {
			ids = append(ids, id)
		}
	}
	sortInts(ids)
	var out []*Endpoint
	for _, id := range ids {
		if rx := n.eps[id]; !rx.dead && e.pos.Dist(rx.pos) <= n.cfg.CommRange {
			out = append(out, rx)
		}
	}
	return out
}

// Neighbors returns the IDs of nodes within communication range of id
// (excluding itself), regardless of power state, in ascending order.
func (n *Network) Neighbors(id int) []int {
	self, ok := n.eps[id]
	if !ok {
		panic(fmt.Sprintf("radio: unknown node %d", id))
	}
	nbs := n.neighborsOf(self)
	out := make([]int, len(nbs))
	for i, ep := range nbs {
		out[i] = ep.id
	}
	return out
}

// Endpoint is one node's attachment to the medium.
type Endpoint struct {
	id       int
	pos      geometry.Point
	net      *Network
	on       bool
	handler  Handler
	listener ActivityListener
	dead     bool

	// sched is the scheduler this node's events run on: the network
	// scheduler in serial mode, the owning shard's in sharded mode.
	sched *sim.Scheduler
	// rng is the node's private random stream (see sim.NewNodeRand).
	rng *rand.Rand
	// shard is the owning shard index (0 in serial mode).
	shard int
	// txSeq counts this endpoint's transmissions; with the sender ID it
	// orders same-instant cross-shard deposits deterministically.
	txSeq uint64

	// ord is the endpoint's position in net.byID.
	ord int
	// neighbors caches the in-range receiver list (ascending ID), valid
	// while nbEpoch matches the network epoch.
	neighbors []*Endpoint
	nbEpoch   uint64
}

// ID returns the node ID.
func (e *Endpoint) ID() int { return e.id }

// Pos returns the node position.
func (e *Endpoint) Pos() geometry.Point { return e.pos }

// Sched returns the scheduler this node's events run on. Protocol layers
// above the radio must schedule their per-node timers here so that, under
// sharded execution, a node's entire event stream stays on its shard.
func (e *Endpoint) Sched() *sim.Scheduler { return e.sched }

// Rand returns the node's private random stream. All runtime protocol
// randomness for this node (election backoffs, listen jitter, detection
// draws) must come from here rather than the run scheduler's stream —
// per-node streams are consumed in per-node event order, which is what
// keeps sharded runs bit-identical to serial ones.
func (e *Endpoint) Rand() *rand.Rand { return e.rng }

// Shard returns the owning shard index (0 in serial mode).
func (e *Endpoint) Shard() int { return e.shard }

// SetPos relocates the endpoint. Motes are fixed after deployment; this
// exists for the data mule, which physically moves between query stops.
// Moving invalidates the network's cached neighbor lists. Under sharded
// execution this must run on the global lane.
func (e *Endpoint) SetPos(p geometry.Point) {
	e.pos = p
	e.net.invalidate()
}

// SetHandler installs the frame receiver. Installing nil silences the
// endpoint (frames still consume RX activity — the radio hardware
// processes them either way).
func (e *Endpoint) SetHandler(h Handler) { e.handler = h }

// SetActivityListener installs the CPU-contention hook.
func (e *Endpoint) SetActivityListener(l ActivityListener) { e.listener = l }

// SetRadio switches the transceiver. While off, the endpoint neither
// receives nor may transmit.
func (e *Endpoint) SetRadio(on bool) { e.on = on }

// RadioOn reports the power state.
func (e *Endpoint) RadioOn() bool { return e.on && !e.dead }

// Kill disables the endpoint (node failure injection). Dead endpoints
// are pruned from receiver enumeration — both the cell-index and
// brute-force paths skip them identically, so the seeded loss draws stay
// bit-identical between paths — and frames already in flight find them
// via the RadioOn check at delivery. Reversible with Revive. Under
// sharded execution this must run on the global lane.
func (e *Endpoint) Kill() {
	e.dead = true
	e.net.invalidate()
}

// Revive re-enables a killed endpoint (chaos reboot). The node rejoins
// receiver enumeration for frames sent from now on; frames in flight
// when it was dead were addressed to the old receiver set and stay lost.
func (e *Endpoint) Revive() {
	e.dead = false
	e.net.invalidate()
}

// Alive reports whether the endpoint is functional.
func (e *Endpoint) Alive() bool { return !e.dead }

// Send transmits a frame. to is a node ID or Broadcast; the frame is
// physically delivered to every powered-on endpoint in range either way.
// Sending with the radio off or from a dead node panics — that is a
// protocol-layer bug, not an environmental condition.
func (e *Endpoint) Send(to int, payload Payload, piggyback ...Payload) {
	if e.dead {
		panic(fmt.Sprintf("radio: node %d is dead and cannot transmit", e.id))
	}
	if !e.on {
		panic(fmt.Sprintf("radio: node %d transmitting with radio off", e.id))
	}
	n := e.net
	f := &Frame{From: e.id, To: to, Payload: payload, SentAt: e.sched.Now()}
	if len(piggyback) > 0 {
		// Copy into frame-owned storage (inline for the broadcast layer's
		// ≤4-payload bundles) so callers may reuse their ride buffers
		// while this frame is still in flight.
		f.Piggyback = append(f.pb[:0], piggyback...)
	}
	airTime := n.cfg.TurnaroundDelay + time.Duration(f.TotalSize())*n.cfg.ByteTime

	st := &n.sh[e.shard]
	st.stats.TotalFrames++
	st.stats.TotalBytes += uint64(f.TotalSize())
	if m := n.metrics; m != nil {
		m.txFrames.AddLane(e.shard, 1)
		m.txBytes.AddLane(e.shard, int64(f.TotalSize()))
	}
	for e.id >= len(st.txByNode) {
		st.txByNode = append(st.txByNode, 0)
	}
	st.txByNode[e.id]++
	kind := payload.Kind()
	st.countTx(kind)
	for _, p := range f.Piggyback {
		st.countTx(p.Kind())
	}

	if e.listener != nil {
		e.listener.RadioActivity(ActivityTx, airTime)
	}

	// Receiver enumeration. Both paths yield the in-range endpoints in
	// ascending ID order — the order the original full scan used — so the
	// per-receiver RNG draws below consume the sender's random stream
	// identically whichever path is active.
	var receivers []*Endpoint
	if n.cfg.BruteForce {
		receivers = n.bruteReceivers(e)
	} else {
		receivers = n.neighborsOf(e)
	}

	// Loss is drawn per receiver at transmission time (ascending ID
	// order, from the sender's stream — invariant under sharding), then
	// carried to the delivery event as a bitmap. Receiver sets above 64
	// spill into an allocated slice; typical densities fit the single
	// word. Draws happen even for an empty receiver set's length-0 loop
	// trivially, keeping the stream aligned across topologies with and
	// without neighbors.
	if len(receivers) == 0 {
		return
	}
	var lossWord uint64
	var lossBits []uint64
	if n.cfg.LossProb > 0 {
		if len(receivers) > 64 {
			lossBits = make([]uint64, (len(receivers)+63)/64)
		}
		for i := range receivers {
			if e.rng.Float64() < n.cfg.LossProb {
				if lossBits != nil {
					lossBits[i/64] |= 1 << (i % 64)
				} else {
					lossWord |= 1 << i
				}
			}
		}
	}

	rxTime := time.Duration(f.TotalSize()) * n.cfg.ByteTime
	name := deliverName(kind)
	e.txSeq++
	txSeq := e.txSeq

	if n.shards == nil {
		// Serial: one delivery event for the whole receiver list, walking
		// ascending ID order. PostDelivery keys the event by
		// (sender, txSeq) so same-instant deliveries from different
		// senders fire in the same order a sharded run's merge produces.
		e.sched.PostDelivery(airTime, e.id, txSeq, name, func() {
			n.deliver(receivers, f, lossWord, lossBits, rxTime, kind)
		})
		return
	}

	// Sharded: route every destination shard's receiver subset through
	// the coordinator's deposit lanes — including the sender's own shard,
	// so that all deliveries arriving at one instant sort by the same
	// shard-count-invariant (at, sentAt, sender, txSeq) key no matter how
	// the nodes are partitioned. The delivery fires at least
	// Config.Lookahead() from now, i.e. beyond the current window, so
	// merging at the next barrier always precedes it.
	sentAt := f.SentAt
	at := sentAt.Add(airTime)

	sameShard := true
	for _, rx := range receivers {
		if rx.shard != receivers[0].shard {
			sameShard = false
			break
		}
	}
	if sameShard {
		n.shards.Deposit(e.shard, receivers[0].shard, at, sentAt, e.id, txSeq, name, func() {
			n.deliver(receivers, f, lossWord, lossBits, rxTime, kind)
		})
		return
	}

	// Boundary transmission: split receivers (and their loss bits) by
	// destination shard, preserving ascending ID order within each
	// subset. Shards are visited in order of first appearance in the
	// receiver list, which is deterministic.
	var order []int
	subsets := make(map[int][]int)
	for i, rx := range receivers {
		g := rx.shard
		if _, seen := subsets[g]; !seen {
			order = append(order, g)
		}
		subsets[g] = append(subsets[g], i)
	}
	for _, g := range order {
		idxs := subsets[g]
		subset := make([]*Endpoint, len(idxs))
		var subWord uint64
		var subBits []uint64
		if len(idxs) > 64 {
			subBits = make([]uint64, (len(idxs)+63)/64)
		}
		for j, i := range idxs {
			subset[j] = receivers[i]
			lost := lossWord&(1<<i) != 0
			if lossBits != nil {
				lost = lossBits[i/64]&(1<<(i%64)) != 0
			}
			if lost {
				if subBits != nil {
					subBits[j/64] |= 1 << (j % 64)
				} else {
					subWord |= 1 << j
				}
			}
		}
		n.shards.Deposit(e.shard, g, at, sentAt, e.id, txSeq, name, func() {
			n.deliver(subset, f, subWord, subBits, rxTime, kind)
		})
	}
}

// deliver walks one shard's receiver subset in ascending ID order. It
// runs on the receivers' scheduler (all entries share a shard), so the
// per-shard counters and tracer it touches are single-threaded.
func (n *Network) deliver(rxs []*Endpoint, f *Frame, lossWord uint64, lossBits []uint64, rxTime time.Duration, kind KindID) {
	shard := rxs[0].shard
	st := &n.sh[shard]
	tr := n.trFor(shard)
	m := n.metrics
	now := rxs[0].sched.Now()
	for i, rx := range rxs {
		if !rx.RadioOn() {
			st.stats.DroppedRadioOff++
			if m != nil {
				m.dropOff.AddLane(shard, 1)
			}
			tr.Emit(now, evDropOff, int32(rx.id), int32(f.From), 0, int64(kind), 0)
			continue
		}
		if n.blocked != nil && n.linkBlocked(f.From, rx.id) {
			st.stats.DroppedPartition++
			if m != nil {
				m.dropPartition.AddLane(shard, 1)
			}
			tr.Emit(now, evDropPartition, int32(rx.id), int32(f.From), 0, int64(kind), 0)
			continue
		}
		lost := lossWord&(1<<i) != 0
		if lossBits != nil {
			lost = lossBits[i/64]&(1<<(i%64)) != 0
		}
		if lost {
			st.stats.Lost++
			if m != nil {
				m.dropLoss.AddLane(shard, 1)
			}
			tr.Emit(now, evDropLoss, int32(rx.id), int32(f.From), 0, int64(kind), 0)
			continue
		}
		st.stats.Delivered++
		if m != nil {
			m.delivered.AddLane(shard, 1)
		}
		if rx.listener != nil {
			rx.listener.RadioActivity(ActivityRx, rxTime)
		}
		if rx.handler != nil {
			rx.handler.HandleFrame(f)
		}
	}
}

func sortInts(a []int) {
	// Insertion sort: neighbor lists are small and this avoids pulling in
	// sort for a hot path with 5-20 entries.
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
