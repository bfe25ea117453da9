package sim

import (
	"math"
	"sort"
	"strconv"
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	var e Engine
	var got []float64
	for _, ts := range []float64{3, 1, 2, 1.5, 0.5} {
		ts := ts
		e.At(ts, func() { got = append(got, ts) })
	}
	e.Run(10)
	if !sort.Float64sAreSorted(got) {
		t.Fatalf("events fired out of order: %v", got)
	}
	if len(got) != 5 {
		t.Fatalf("expected 5 events, got %d", len(got))
	}
	if e.Now() != 10 {
		t.Fatalf("clock should advance to horizon, got %v", e.Now())
	}
}

func TestEngineFIFOTieBreak(t *testing.T) {
	var e Engine
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.At(1.0, func() { got = append(got, i) })
	}
	e.Run(2)
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events not FIFO at %d: %v", i, got[:i+1])
		}
	}
}

func TestEngineAfterAndNesting(t *testing.T) {
	var e Engine
	var times []float64
	e.After(1, func() {
		times = append(times, e.Now())
		e.After(1, func() { times = append(times, e.Now()) })
	})
	e.Run(5)
	if len(times) != 2 || times[0] != 1 || times[1] != 2 {
		t.Fatalf("nested scheduling broken: %v", times)
	}
}

func TestEngineSlotRemove(t *testing.T) {
	var e Engine
	fired := false
	s := NewSlot(func() { fired = true })
	e.Move(s, 1)
	if s.pos == 0 || e.Pending() != 1 {
		t.Fatalf("moved slot: queued=%v pending=%d", s.pos > 0, e.Pending())
	}
	e.Remove(s)
	if s.pos > 0 || e.Pending() != 0 {
		t.Fatalf("removed slot: queued=%v pending=%d", s.pos > 0, e.Pending())
	}
	e.Run(2)
	if fired {
		t.Fatal("removed slot fired")
	}
}

// A slot is queued at most once: moving it again replaces its time, and it
// fires once, at the last time it was moved to.
func TestEngineSlotMoveInPlace(t *testing.T) {
	var e Engine
	var fired []float64
	s := NewSlot(func() { fired = append(fired, e.Now()) })
	e.Move(s, 5)
	e.Move(s, 2)
	e.Move(s, 3)
	if e.Pending() != 1 {
		t.Fatalf("pending = %d after three moves, want 1", e.Pending())
	}
	e.Run(10)
	if len(fired) != 1 || fired[0] != 3 {
		t.Fatalf("slot fired at %v, want once at 3", fired)
	}
	if s.pos > 0 {
		t.Fatal("a fired slot must not stay queued")
	}
}

// A move takes a fresh sequence number, exactly as At does: the slot fires
// after events already scheduled for the same time and before later ones.
func TestEngineSlotMoveTakesFreshSeq(t *testing.T) {
	var e Engine
	var got []string
	s := NewSlot(func() { got = append(got, "slot") })
	e.Move(s, 1)
	e.At(1, func() { got = append(got, "a") })
	e.Move(s, 1)
	e.At(1, func() { got = append(got, "b") })
	e.Run(2)
	if len(got) != 3 || got[0] != "a" || got[1] != "slot" || got[2] != "b" {
		t.Fatalf("firing order %v, want [a slot b]", got)
	}
}

// A slot may be re-armed from its own callback (a tier scheduling its next
// completion while retiring the current one).
func TestEngineSlotRearmsFromCallback(t *testing.T) {
	var e Engine
	n := 0
	var s *Slot
	s = NewSlot(func() {
		n++
		if n < 3 {
			e.Move(s, e.Now()+1)
		}
	})
	e.Move(s, 1)
	e.Run(10)
	if n != 3 || s.pos > 0 {
		t.Fatalf("fired %d times (queued=%v), want 3", n, s.pos > 0)
	}
}

func TestEngineSlotMovePastPanics(t *testing.T) {
	var e Engine
	e.Run(3)
	defer func() {
		if recover() == nil {
			t.Fatal("moving a slot into the past should panic")
		}
	}()
	e.Move(NewSlot(func() {}), 1)
}

func TestEngineSlotRemoveUnqueued(t *testing.T) {
	var e Engine
	e.Remove(NewSlot(func() {})) // must not panic
	if e.Pending() != 0 {
		t.Fatal("pending after removing an unqueued slot")
	}
}

// Property: for any sequence of schedules, slot moves and slot removals,
// events fire in exactly the (time, seq) order of a reference sort of the
// live schedule, and removed or superseded slot times never fire.
func TestEngineHeapOrderProperty(t *testing.T) {
	type op struct {
		Kind uint8 // 0–1: At; 2: move a slot; 3: remove a slot
		Slot uint8
		Time uint8 // coarse times, so ties are common
	}
	type want struct {
		time float64
		seq  int
		id   string
	}
	f := func(ops []op) bool {
		var e Engine
		var fired []string
		slots := make([]*Slot, 4)
		live := map[string]want{}
		seq := 0
		slotID := func(k int) string { return "slot" + strconv.Itoa(k) }
		for i := range slots {
			id := slotID(i)
			slots[i] = NewSlot(func() { fired = append(fired, id) })
		}
		for i, o := range ops {
			tm := float64(o.Time % 16)
			switch o.Kind % 4 {
			case 0, 1:
				id := "at" + strconv.Itoa(i)
				e.At(tm, func() { fired = append(fired, id) })
				live[id] = want{tm, seq, id}
				seq++
			case 2:
				k := int(o.Slot) % len(slots)
				e.Move(slots[k], tm)
				live[slotID(k)] = want{tm, seq, slotID(k)}
				seq++
			case 3:
				k := int(o.Slot) % len(slots)
				e.Remove(slots[k])
				delete(live, slotID(k))
			}
		}
		if e.Pending() != len(live) {
			return false
		}
		ref := make([]want, 0, len(live))
		for _, w := range live {
			ref = append(ref, w)
		}
		sort.Slice(ref, func(a, b int) bool {
			if ref[a].time != ref[b].time {
				return ref[a].time < ref[b].time
			}
			return ref[a].seq < ref[b].seq
		})
		e.Run(100)
		if len(fired) != len(ref) {
			return false
		}
		for i := range ref {
			if fired[i] != ref[i].id {
				return false
			}
		}
		return e.Pending() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestEngineHorizonLeavesFutureEvents(t *testing.T) {
	var e Engine
	fired := false
	e.At(5, func() { fired = true })
	e.Run(3)
	if fired {
		t.Fatal("event beyond horizon fired")
	}
	if e.Now() != 3 {
		t.Fatalf("now = %v, want 3", e.Now())
	}
	e.Run(6)
	if !fired {
		t.Fatal("event not fired after extending horizon")
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	var e Engine
	e.At(2, func() {})
	e.Run(3)
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past should panic")
		}
	}()
	e.At(1, func() {})
}

func TestEngineHalt(t *testing.T) {
	var e Engine
	count := 0
	for i := 1; i <= 10; i++ {
		e.At(float64(i), func() {
			count++
			if count == 3 {
				e.Halt()
			}
		})
	}
	e.Run(100)
	if count != 3 {
		t.Fatalf("halt did not stop run: %d events fired", count)
	}
}

func TestEngineStep(t *testing.T) {
	var e Engine
	n := 0
	e.At(1, func() { n++ })
	s := NewSlot(func() { n++ })
	e.Move(s, 2)
	e.Remove(s)
	e.At(3, func() { n++ })
	steps := 0
	for e.Step() {
		steps++
	}
	if steps != 2 || n != 2 {
		t.Fatalf("steps=%d n=%d, want 2 and 2", steps, n)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed must produce identical streams")
		}
	}
}

func TestRNGExpMean(t *testing.T) {
	g := NewRNG(1)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += g.Exp(2.5)
	}
	mean := sum / n
	if math.Abs(mean-2.5) > 0.05 {
		t.Fatalf("exp mean = %v, want ~2.5", mean)
	}
}

func TestRNGLogNormalMoments(t *testing.T) {
	g := NewRNG(2)
	const mean, cv, n = 10.0, 0.5, 200000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := g.LogNormal(mean, cv)
		if v < 0 {
			t.Fatal("lognormal sample must be non-negative")
		}
		sum += v
		sumsq += v * v
	}
	m := sum / n
	sd := math.Sqrt(sumsq/n - m*m)
	if math.Abs(m-mean) > 0.15 {
		t.Fatalf("lognormal mean = %v, want ~%v", m, mean)
	}
	if math.Abs(sd/m-cv) > 0.05 {
		t.Fatalf("lognormal cv = %v, want ~%v", sd/m, cv)
	}
}

func TestRNGPoissonMean(t *testing.T) {
	g := NewRNG(3)
	for _, mean := range []float64{0.5, 4, 30, 200} {
		sum := 0
		const n = 50000
		for i := 0; i < n; i++ {
			sum += g.Poisson(mean)
		}
		got := float64(sum) / n
		if math.Abs(got-mean) > 0.05*mean+0.05 {
			t.Fatalf("poisson(%v) mean = %v", mean, got)
		}
	}
}

func TestRNGZipfSkew(t *testing.T) {
	g := NewRNG(4)
	counts := make([]int, 10)
	for i := 0; i < 100000; i++ {
		counts[g.Zipf(10, 1.0)]++
	}
	if counts[0] <= counts[9] {
		t.Fatalf("zipf should skew toward low ranks: %v", counts)
	}
	// Rank-0 over rank-1 ratio should be roughly 2 for s=1.
	ratio := float64(counts[0]) / float64(counts[1])
	if ratio < 1.6 || ratio > 2.4 {
		t.Fatalf("zipf rank ratio = %v, want ~2", ratio)
	}
}

func TestRNGZipfBounds(t *testing.T) {
	g := NewRNG(5)
	f := func(n uint8, s float64) bool {
		size := int(n%50) + 1
		v := g.Zipf(size, math.Abs(s))
		return v >= 0 && v < size
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestRNGForkIndependence(t *testing.T) {
	g := NewRNG(6)
	a := g.Fork()
	b := g.Fork()
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("forked streams look identical (%d matches)", same)
	}
}

func TestRNGPermAndShuffle(t *testing.T) {
	g := NewRNG(9)
	p := g.Perm(20)
	seen := make([]bool, 20)
	for _, v := range p {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("perm invalid: %v", p)
		}
		seen[v] = true
	}
	xs := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	sum := 0
	g.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	for _, v := range xs {
		sum += v
	}
	if sum != 45 {
		t.Fatal("shuffle lost elements")
	}
}

func TestRNGNormalMoments(t *testing.T) {
	g := NewRNG(10)
	sum, sumsq := 0.0, 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		v := g.Normal(5, 2)
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	sd := math.Sqrt(sumsq/n - mean*mean)
	if math.Abs(mean-5) > 0.05 || math.Abs(sd-2) > 0.05 {
		t.Fatalf("normal moments: mean=%v sd=%v", mean, sd)
	}
}
