package radio

import (
	"testing"
	"time"

	"enviromic/internal/geometry"
	"enviromic/internal/sim"
)

// Interned kinds for the test payloads (shared with index_test.go).
var (
	kindHello   = RegisterKind("hello")
	kindTask    = RegisterKind("task")
	kindX       = RegisterKind("x")
	kindSensing = RegisterKind("sensing")
	kindTTL     = RegisterKind("ttl")
	kindChatter = RegisterKind("chatter")
	kindQuery   = RegisterKind("query")
)

// testPayload is a minimal payload for exercising the medium.
type testPayload struct {
	kind KindID
	size int
	tag  int
}

func (p testPayload) Kind() KindID { return p.kind }
func (p testPayload) Size() int    { return p.size }

func lossless(commRange float64) Config {
	cfg := DefaultConfig(commRange)
	cfg.LossProb = 0
	return cfg
}

type capture struct {
	frames []*Frame
}

func (c *capture) HandleFrame(f *Frame) { c.frames = append(c.frames, f) }

func TestBroadcastReachesNodesInRange(t *testing.T) {
	s := sim.NewScheduler(1)
	n := NewNetwork(s, lossless(2.0))
	a := n.Join(0, geometry.Point{X: 0, Y: 0})
	b := n.Join(1, geometry.Point{X: 1, Y: 0}) // in range
	c := n.Join(2, geometry.Point{X: 5, Y: 0}) // out of range
	var rb, rc capture
	b.SetHandler(&rb)
	c.SetHandler(&rc)
	a.Send(Broadcast, testPayload{kind: kindHello, size: 4})
	s.Run(sim.At(time.Second))
	if len(rb.frames) != 1 {
		t.Fatalf("in-range node got %d frames, want 1", len(rb.frames))
	}
	if len(rc.frames) != 0 {
		t.Fatalf("out-of-range node got %d frames, want 0", len(rc.frames))
	}
	f := rb.frames[0]
	if f.From != 0 || f.To != Broadcast || f.Payload.Kind() != kindHello {
		t.Errorf("frame = %+v", f)
	}
}

func TestUnicastIsOverheard(t *testing.T) {
	s := sim.NewScheduler(1)
	n := NewNetwork(s, lossless(5))
	a := n.Join(0, geometry.Point{})
	b := n.Join(1, geometry.Point{X: 1})
	c := n.Join(2, geometry.Point{X: 2})
	var rb, rc capture
	b.SetHandler(&rb)
	c.SetHandler(&rc)
	a.Send(1, testPayload{kind: kindTask, size: 8})
	s.Run(sim.At(time.Second))
	if len(rb.frames) != 1 {
		t.Error("addressee did not receive")
	}
	// Overhearing is load-bearing for the TASK_CONFIRM optimization.
	if len(rc.frames) != 1 {
		t.Error("third party did not overhear the unicast")
	}
	if rc.frames[0].To != 1 {
		t.Error("overheard frame lost its addressee")
	}
}

func TestRadioOffDropsFrames(t *testing.T) {
	s := sim.NewScheduler(1)
	n := NewNetwork(s, lossless(5))
	a := n.Join(0, geometry.Point{})
	b := n.Join(1, geometry.Point{X: 1})
	var rb capture
	b.SetHandler(&rb)
	b.SetRadio(false)
	a.Send(Broadcast, testPayload{kind: kindX, size: 1})
	s.Run(sim.At(time.Second))
	if len(rb.frames) != 0 {
		t.Error("radio-off node received a frame")
	}
	if n.Stats().DroppedRadioOff != 1 {
		t.Errorf("DroppedRadioOff = %d, want 1", n.Stats().DroppedRadioOff)
	}
	// Radio back on: deliveries resume.
	b.SetRadio(true)
	a.Send(Broadcast, testPayload{kind: kindX, size: 1})
	s.Run(sim.At(2 * time.Second))
	if len(rb.frames) != 1 {
		t.Error("delivery did not resume after radio on")
	}
}

func TestRadioOffAtDeliveryTimeDrops(t *testing.T) {
	// The receiver is on at send time but powers off before the frame's
	// air time elapses — the frame must be lost.
	s := sim.NewScheduler(1)
	n := NewNetwork(s, lossless(5))
	a := n.Join(0, geometry.Point{})
	b := n.Join(1, geometry.Point{X: 1})
	var rb capture
	b.SetHandler(&rb)
	a.Send(Broadcast, testPayload{kind: kindX, size: 100})
	s.After(time.Microsecond, "off", func() { b.SetRadio(false) })
	s.Run(sim.At(time.Second))
	if len(rb.frames) != 0 {
		t.Error("frame delivered to a radio that powered off mid-flight")
	}
}

func TestSendWithRadioOffPanics(t *testing.T) {
	s := sim.NewScheduler(1)
	n := NewNetwork(s, lossless(5))
	a := n.Join(0, geometry.Point{})
	a.SetRadio(false)
	defer func() {
		if recover() == nil {
			t.Error("transmit with radio off did not panic")
		}
	}()
	a.Send(Broadcast, testPayload{kind: kindX, size: 1})
}

func TestDeadNodeNeitherSendsNorReceives(t *testing.T) {
	s := sim.NewScheduler(1)
	n := NewNetwork(s, lossless(5))
	a := n.Join(0, geometry.Point{})
	b := n.Join(1, geometry.Point{X: 1})
	var rb capture
	b.SetHandler(&rb)
	b.Kill()
	a.Send(Broadcast, testPayload{kind: kindX, size: 1})
	s.Run(sim.At(time.Second))
	if len(rb.frames) != 0 {
		t.Error("dead node received a frame")
	}
	if b.Alive() {
		t.Error("Alive() after Kill()")
	}
	defer func() {
		if recover() == nil {
			t.Error("dead node transmit did not panic")
		}
	}()
	b.Send(Broadcast, testPayload{kind: kindX, size: 1})
}

func TestPacketLossIsApplied(t *testing.T) {
	s := sim.NewScheduler(42)
	cfg := lossless(5)
	cfg.LossProb = 0.5
	n := NewNetwork(s, cfg)
	a := n.Join(0, geometry.Point{})
	b := n.Join(1, geometry.Point{X: 1})
	var rb capture
	b.SetHandler(&rb)
	const trials = 400
	for i := 0; i < trials; i++ {
		a.Send(Broadcast, testPayload{kind: kindX, size: 1, tag: i})
	}
	s.RunAll()
	got := len(rb.frames)
	if got < trials/4 || got > trials*3/4 {
		t.Errorf("with 50%% loss, delivered %d of %d (expected near half)", got, trials)
	}
	st := n.Stats()
	if st.Delivered+st.Lost != trials {
		t.Errorf("Delivered+Lost = %d, want %d", st.Delivered+st.Lost, trials)
	}
}

func TestTransmissionDelayScalesWithSize(t *testing.T) {
	s := sim.NewScheduler(1)
	cfg := lossless(5)
	cfg.ByteTime = time.Millisecond
	cfg.TurnaroundDelay = 10 * time.Millisecond
	n := NewNetwork(s, cfg)
	a := n.Join(0, geometry.Point{})
	b := n.Join(1, geometry.Point{X: 1})
	var deliveredAt sim.Time
	b.SetHandler(HandlerFunc(func(f *Frame) { deliveredAt = s.Now() }))
	a.Send(Broadcast, testPayload{kind: kindX, size: 20})
	s.RunAll()
	// 10ms turnaround + (11 MAC + 20 payload) bytes × 1ms.
	want := sim.At(41 * time.Millisecond)
	if deliveredAt != want {
		t.Errorf("delivered at %v, want %v", deliveredAt, want)
	}
}

func TestPiggybackCountsAndSize(t *testing.T) {
	s := sim.NewScheduler(1)
	n := NewNetwork(s, lossless(5))
	a := n.Join(0, geometry.Point{})
	b := n.Join(1, geometry.Point{X: 1})
	var rb capture
	b.SetHandler(&rb)
	a.Send(Broadcast, testPayload{kind: kindSensing, size: 10},
		testPayload{kind: kindTTL, size: 6})
	s.RunAll()
	if len(rb.frames) != 1 {
		t.Fatalf("got %d frames, want 1", len(rb.frames))
	}
	f := rb.frames[0]
	if len(f.Piggyback) != 1 || f.Piggyback[0].Kind() != kindTTL {
		t.Fatalf("piggyback = %+v", f.Piggyback)
	}
	if f.TotalSize() != 11+10+6 {
		t.Errorf("TotalSize = %d, want 27", f.TotalSize())
	}
	st := n.Stats()
	if st.TotalFrames != 1 {
		t.Errorf("TotalFrames = %d, want 1 (piggyback must not add frames)", st.TotalFrames)
	}
	if st.TxByKind["sensing"] != 1 || st.TxByKind["ttl"] != 1 {
		t.Errorf("TxByKind = %v", st.TxByKind)
	}
}

func TestNeighbors(t *testing.T) {
	s := sim.NewScheduler(1)
	n := NewNetwork(s, lossless(2.5))
	n.Join(0, geometry.Point{X: 0})
	n.Join(1, geometry.Point{X: 2})
	n.Join(2, geometry.Point{X: 4})
	n.Join(3, geometry.Point{X: 9})
	got := n.Neighbors(1)
	if len(got) != 2 {
		t.Fatalf("Neighbors(1) = %v, want 2 nodes", got)
	}
	seen := map[int]bool{}
	for _, id := range got {
		seen[id] = true
	}
	if !seen[0] || !seen[2] {
		t.Errorf("Neighbors(1) = %v, want {0,2}", got)
	}
}

func TestDeterministicDeliveryOrder(t *testing.T) {
	run := func() []int {
		s := sim.NewScheduler(9)
		cfg := lossless(100)
		cfg.LossProb = 0.3
		n := NewNetwork(s, cfg)
		tx := n.Join(0, geometry.Point{})
		var order []int
		for id := 1; id <= 20; id++ {
			ep := n.Join(id, geometry.Point{X: float64(id % 5)})
			rxID := id
			ep.SetHandler(HandlerFunc(func(f *Frame) { order = append(order, rxID) }))
		}
		for i := 0; i < 10; i++ {
			tx.Send(Broadcast, testPayload{kind: kindX, size: 3, tag: i})
		}
		s.RunAll()
		return order
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("delivery counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("delivery order diverges at %d", i)
		}
	}
}

func TestJoinValidation(t *testing.T) {
	s := sim.NewScheduler(1)
	n := NewNetwork(s, lossless(1))
	n.Join(0, geometry.Point{})
	for _, fn := range []func(){
		func() { n.Join(0, geometry.Point{}) },  // duplicate
		func() { n.Join(-1, geometry.Point{}) }, // negative
		func() { n.Neighbors(99) },              // unknown
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid operation did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestNetworkConfigValidation(t *testing.T) {
	s := sim.NewScheduler(1)
	for _, cfg := range []Config{
		{CommRange: 0},
		{CommRange: 1, LossProb: -0.1},
		{CommRange: 1, LossProb: 1.0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v accepted", cfg)
				}
			}()
			NewNetwork(s, cfg)
		}()
	}
}

type activityRecorder struct {
	tx, rx int
}

func (a *activityRecorder) RadioActivity(kind ActivityKind, dur time.Duration) {
	switch kind {
	case ActivityTx:
		a.tx++
	case ActivityRx:
		a.rx++
	}
}

func TestActivityListenerSeesTxAndRx(t *testing.T) {
	s := sim.NewScheduler(1)
	n := NewNetwork(s, lossless(5))
	a := n.Join(0, geometry.Point{})
	b := n.Join(1, geometry.Point{X: 1})
	var la, lb activityRecorder
	a.SetActivityListener(&la)
	b.SetActivityListener(&lb)
	// No handler installed on b: the radio still burns CPU on reception.
	a.Send(Broadcast, testPayload{kind: kindX, size: 1})
	s.RunAll()
	if la.tx != 1 || la.rx != 0 {
		t.Errorf("sender activity tx/rx = %d/%d, want 1/0", la.tx, la.rx)
	}
	if lb.rx != 1 {
		t.Errorf("receiver activity rx = %d, want 1 (even without handler)", lb.rx)
	}
}
