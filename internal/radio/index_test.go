package radio

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"enviromic/internal/geometry"
	"enviromic/internal/sim"
)

// testDeployments mirrors the geometry package's index stress layouts:
// uniform random, clustered (many nodes per cell), and collinear with
// pairs exactly at the communication range.
func testDeployments(r float64) map[string][]geometry.Point {
	rng := rand.New(rand.NewSource(11))
	random := make([]geometry.Point, 80)
	for i := range random {
		random[i] = geometry.Point{X: rng.Float64()*30 - 15, Y: rng.Float64()*30 - 15}
	}
	var clustered []geometry.Point
	for _, c := range []geometry.Point{{X: -10, Y: -10}, {X: 8, Y: 2}, {X: 0, Y: 12}} {
		for i := 0; i < 25; i++ {
			clustered = append(clustered, geometry.Point{
				X: c.X + rng.Float64()*r - r/2,
				Y: c.Y + rng.Float64()*r - r/2,
			})
		}
	}
	collinear := make([]geometry.Point, 40)
	for i := range collinear {
		collinear[i] = geometry.Point{X: float64(i) * r / 2, Y: 0}
	}
	return map[string][]geometry.Point{
		"random": random, "clustered": clustered, "collinear": collinear,
	}
}

func TestNeighborsIndexMatchesBruteForce(t *testing.T) {
	const r = 3.5
	for name, pts := range testDeployments(r) {
		s := sim.NewScheduler(1)
		n := NewNetwork(s, lossless(r))
		for i, p := range pts {
			n.Join(i, p)
		}
		for id := range pts {
			got := n.Neighbors(id)
			var want []int
			for other, q := range pts {
				if other != id && pts[id].Dist(q) <= r {
					want = append(want, other)
				}
			}
			sort.Ints(want)
			if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
				t.Fatalf("%s: Neighbors(%d) = %v, want %v", name, id, got, want)
			}
		}
	}
}

// TestNeighborCacheInvalidation moves an endpoint (the data-mule case)
// and verifies both its own and other nodes' neighbor lists track the
// move.
func TestNeighborCacheInvalidation(t *testing.T) {
	s := sim.NewScheduler(1)
	n := NewNetwork(s, lossless(2))
	a := n.Join(0, geometry.Point{X: 0})
	n.Join(1, geometry.Point{X: 1})
	mule := n.Join(2, geometry.Point{X: 50})

	if got := n.Neighbors(0); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("initial Neighbors(0) = %v, want [1]", got)
	}
	if got := n.Neighbors(2); len(got) != 0 {
		t.Fatalf("initial Neighbors(2) = %v, want none", got)
	}

	mule.SetPos(geometry.Point{X: 0.5})
	if got := n.Neighbors(0); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Fatalf("post-move Neighbors(0) = %v, want [1 2]", got)
	}
	if got := n.Neighbors(2); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Fatalf("post-move Neighbors(2) = %v, want [0 1]", got)
	}

	// Frames sent after the move must reach the mule.
	var rx capture
	mule.SetHandler(&rx)
	a.Send(Broadcast, testPayload{kind: kindX, size: 1})
	s.RunAll()
	if len(rx.frames) != 1 {
		t.Fatalf("mule received %d frames after relocating into range", len(rx.frames))
	}
}

// deliveryLog records every frame delivery as (virtual time, receiver,
// sender, payload tag) so two runs can be compared event-for-event.
type deliveryLog struct {
	s   *sim.Scheduler
	log [][4]int64
}

func (d *deliveryLog) handlerFor(id int) Handler {
	return HandlerFunc(func(f *Frame) {
		d.log = append(d.log, [4]int64{int64(d.s.Now()), int64(id), int64(f.From), int64(f.Payload.(testPayload).tag)})
	})
}

// driveScriptedTraffic runs a fixed scenario — random senders under loss,
// a relocating mule, a node failure, radio power toggles — and returns
// the delivery log and final stats.
func driveScriptedTraffic(bruteForce bool) (*deliveryLog, *Stats) {
	const r = 3.0
	s := sim.NewScheduler(42)
	cfg := DefaultConfig(r)
	cfg.LossProb = 0.15
	cfg.BruteForce = bruteForce
	n := NewNetwork(s, cfg)
	d := &deliveryLog{s: s}

	pts := testDeployments(r)["random"]
	eps := make([]*Endpoint, len(pts))
	for i, p := range pts {
		eps[i] = n.Join(i, p)
		eps[i].SetHandler(d.handlerFor(i))
	}
	mule := n.Join(len(pts), geometry.Point{X: 100, Y: 100})
	mule.SetHandler(d.handlerFor(len(pts)))

	tag := 0
	tick := sim.NewTicker(s, 40*time.Millisecond, "traffic", func() {
		from := eps[s.Rand().Intn(len(eps))]
		if !from.Alive() || !from.RadioOn() {
			return
		}
		tag++
		from.Send(Broadcast, testPayload{kind: kindChatter, size: 12, tag: tag})
	})
	defer tick.Stop()

	// Mule tour: relocate every 300 ms and query.
	stops := []geometry.Point{{X: -10, Y: -10}, {X: 0, Y: 0}, {X: 10, Y: 10}, {X: 100, Y: 100}}
	for i, stop := range stops {
		stop := stop
		s.At(sim.At(time.Duration(i+1)*300*time.Millisecond), "mule.move", func() {
			mule.SetPos(stop)
			mule.Send(Broadcast, testPayload{kind: kindQuery, size: 6, tag: -1})
		})
	}
	// A node dies mid-run; another power-cycles its radio.
	s.At(sim.At(700*time.Millisecond), "kill", func() { eps[7].Kill() })
	s.At(sim.At(500*time.Millisecond), "radio-off", func() { eps[3].SetRadio(false) })
	s.At(sim.At(900*time.Millisecond), "radio-on", func() { eps[3].SetRadio(true) })

	s.Run(sim.At(2 * time.Second))
	return d, n.Stats()
}

// TestIndexedSendBitIdentical asserts the acceptance criterion: for a
// fixed seed, the spatial-index fast path and the brute-force scan
// produce identical delivery sequences and identical radio statistics.
func TestIndexedSendBitIdentical(t *testing.T) {
	logIdx, statsIdx := driveScriptedTraffic(false)
	logBrute, statsBrute := driveScriptedTraffic(true)
	if len(logIdx.log) == 0 {
		t.Fatal("scripted traffic delivered nothing; scenario is vacuous")
	}
	if len(logIdx.log) != len(logBrute.log) {
		t.Fatalf("delivery counts diverge: indexed %d, brute %d", len(logIdx.log), len(logBrute.log))
	}
	for i := range logIdx.log {
		if logIdx.log[i] != logBrute.log[i] {
			t.Fatalf("delivery %d diverges: indexed %v, brute %v", i, logIdx.log[i], logBrute.log[i])
		}
	}
	if !reflect.DeepEqual(statsIdx, statsBrute) {
		t.Fatalf("stats diverge:\nindexed: %+v\nbrute:   %+v", statsIdx, statsBrute)
	}
}

// TestStatsSnapshot asserts the Stats() maps are deep copies: mutating a
// snapshot must not corrupt the network's counters, and a snapshot must
// not track later traffic.
func TestStatsSnapshot(t *testing.T) {
	s := sim.NewScheduler(1)
	n := NewNetwork(s, lossless(5))
	a := n.Join(0, geometry.Point{})
	n.Join(1, geometry.Point{X: 1})
	a.Send(Broadcast, testPayload{kind: kindX, size: 1})
	s.RunAll()

	snap := n.Stats()
	snap.TxByKind["x"] = 999
	snap.TxByNode[0] = 999
	snap.TotalFrames = 999

	fresh := n.Stats()
	if fresh.TxByKind["x"] != 1 || fresh.TxByNode[0] != 1 {
		t.Errorf("mutating a snapshot leaked into the network: %+v", fresh)
	}
	if fresh.TotalFrames != 1 {
		t.Errorf("TotalFrames = %d, want 1", fresh.TotalFrames)
	}

	a.Send(Broadcast, testPayload{kind: kindX, size: 1})
	s.RunAll()
	if fresh.TxByKind["x"] != 1 {
		t.Error("old snapshot tracked traffic sent after it was taken")
	}
}

// TestJoinOutOfOrder verifies the ID-sorted endpoint slice handles
// non-monotonic joins (the mule joins last with a high ID in practice,
// but nothing requires that).
func TestJoinOutOfOrder(t *testing.T) {
	s := sim.NewScheduler(1)
	n := NewNetwork(s, lossless(10))
	for _, id := range []int{5, 1, 9, 0, 3} {
		n.Join(id, geometry.Point{X: float64(id)})
	}
	want := []int{0, 1, 3, 9}
	if got := n.Neighbors(5); !reflect.DeepEqual(got, want) {
		t.Fatalf("Neighbors(5) = %v, want %v", got, want)
	}
}
