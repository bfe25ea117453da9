// Package sim provides a deterministic discrete-event simulation engine
// used as the substrate for the microservice cluster model. All time is
// simulated (seconds as float64); nothing in this package touches the wall
// clock, so experiments are reproducible given a fixed RNG seed.
package sim

import "fmt"

// event is one queued callback, stored by value in the engine's heap.
// Events with equal timestamps fire in the order they were scheduled (seq
// breaks ties), which keeps runs deterministic. slot is set for a Slot's
// event and tracks the event's position as the heap moves it.
type event struct {
	time float64
	seq  int64
	fn   func()
	slot *Slot
}

func (a *event) before(b *event) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

// Slot is a reusable event that is queued at most once at a time: the
// engine moves it in place when it is rescheduled and takes it out when it
// is removed, so an owner that keeps revising one future event (a tier's
// next completion) leaves nothing stale behind in the queue. A slot that
// fires is no longer queued when its callback runs.
type Slot struct {
	fn  func()
	pos int // heap index + 1; 0 while not queued
}

// NewSlot returns an unqueued slot that runs fn each time it fires.
func NewSlot(fn func()) *Slot { return &Slot{fn: fn} }

// Engine is a discrete-event simulator. The zero value is ready to use.
type Engine struct {
	pq    []event // binary min-heap on (time, seq)
	now   float64
	seq   int64
	fired int64
	halt  bool
}

// Now returns the current simulated time in seconds.
func (e *Engine) Now() float64 { return e.now }

// At schedules fn to run at absolute simulated time t. Scheduling in the
// past panics: it always indicates a logic error in the caller.
func (e *Engine) At(t float64, fn func()) {
	e.push(event{time: t, seq: e.stamp(t), fn: fn})
}

// After schedules fn to run d seconds from now.
func (e *Engine) After(d float64, fn func()) { e.At(e.now+d, fn) }

// Move schedules s to fire at absolute time t, moving it in place if it is
// already queued. It takes a fresh sequence number exactly as At does, so
// the slot orders after every event already scheduled for the same time.
func (e *Engine) Move(s *Slot, t float64) {
	ev := event{time: t, seq: e.stamp(t), fn: s.fn, slot: s}
	if s.pos == 0 {
		e.push(ev)
		return
	}
	e.fix(s.pos-1, ev)
}

// Remove takes s out of the queue; removing an unqueued slot is a no-op.
func (e *Engine) Remove(s *Slot) {
	if s.pos == 0 {
		return
	}
	i := s.pos - 1
	s.pos = 0
	n := len(e.pq) - 1
	last := e.pq[n]
	e.pq[n] = event{}
	e.pq = e.pq[:n]
	if i < n {
		e.fix(i, last)
	}
}

// stamp validates a schedule at time t and returns its sequence number.
func (e *Engine) stamp(t float64) int64 {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %.6f before now %.6f", t, e.now))
	}
	e.seq++
	return e.seq - 1
}

// Run executes events in timestamp order until the queue empties, until an
// event is scheduled past the until horizon, or until Halt is called. The
// clock is left at min(until, time of last executed event horizon).
func (e *Engine) Run(until float64) {
	e.halt = false
	for len(e.pq) > 0 && !e.halt && e.pq[0].time <= until {
		e.fire()
	}
	if e.now < until {
		e.now = until
	}
}

// Step executes exactly one pending event (if any) and reports whether an
// event was executed.
func (e *Engine) Step() bool {
	if len(e.pq) == 0 {
		return false
	}
	e.fire()
	return true
}

// fire pops the earliest event, advances the clock to it and runs it.
func (e *Engine) fire() {
	ev := e.pq[0]
	n := len(e.pq) - 1
	last := e.pq[n]
	e.pq[n] = event{}
	e.pq = e.pq[:n]
	if n > 0 {
		e.down(0, last)
	}
	if ev.slot != nil {
		ev.slot.pos = 0
	}
	e.now = ev.time
	e.fired++
	ev.fn()
}

// Halt stops the current Run after the in-flight event returns.
func (e *Engine) Halt() { e.halt = true }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() int64 { return e.fired }

// Pending returns the number of events still queued, queued slots
// included.
func (e *Engine) Pending() int { return len(e.pq) }

func (e *Engine) push(ev event) {
	e.pq = append(e.pq, event{})
	e.up(len(e.pq)-1, ev)
}

// fix places ev at heap index i, where an event it replaces used to be,
// and restores heap order around it.
func (e *Engine) fix(i int, ev event) {
	if i > 0 && ev.before(&e.pq[(i-1)/2]) {
		e.up(i, ev)
	} else {
		e.down(i, ev)
	}
}

// up sifts ev from the hole at index i towards the root.
func (e *Engine) up(i int, ev event) {
	for i > 0 {
		p := (i - 1) / 2
		if !ev.before(&e.pq[p]) {
			break
		}
		e.set(i, e.pq[p])
		i = p
	}
	e.set(i, ev)
}

// down sifts ev from the hole at index i towards the leaves.
func (e *Engine) down(i int, ev event) {
	n := len(e.pq)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && e.pq[r].before(&e.pq[c]) {
			c = r
		}
		if !e.pq[c].before(&ev) {
			break
		}
		e.set(i, e.pq[c])
		i = c
	}
	e.set(i, ev)
}

func (e *Engine) set(i int, ev event) {
	e.pq[i] = ev
	if ev.slot != nil {
		ev.slot.pos = i + 1
	}
}
