package cluster

import "fmt"

// Stage is one node of a request's call tree: CPU demand executed at a tier,
// followed by downstream RPC calls (sequential or parallel). A request holds
// a connection slot at the stage's tier for the duration of its subtree, so
// slow downstream tiers back-pressure their callers.
type Stage struct {
	Tier       string   // tier name
	Work       float64  // mean CPU-seconds of demand at this tier
	Packets    float64  // extra payload packets per call (on top of 1 per RPC)
	WriteBytes float64  // write volume recorded at the tier (drives RSS growth)
	Parallel   bool     // children issued concurrently rather than in order
	Children   []*Stage // downstream calls made after this stage's CPU work
}

// Seq is a convenience constructor for a stage with sequential children.
func Seq(tier string, work float64, children ...*Stage) *Stage {
	return &Stage{Tier: tier, Work: work, Children: children}
}

// Par is a convenience constructor for a stage with parallel children.
func Par(tier string, work float64, children ...*Stage) *Stage {
	return &Stage{Tier: tier, Work: work, Parallel: true, Children: children}
}

// Tiers lists the distinct tier names reachable from the stage.
func (s *Stage) Tiers() []string {
	seen := map[string]bool{}
	var out []string
	var walk func(*Stage)
	walk = func(st *Stage) {
		if !seen[st.Tier] {
			seen[st.Tier] = true
			out = append(out, st.Tier)
		}
		for _, ch := range st.Children {
			walk(ch)
		}
	}
	walk(s)
	return out
}

// node is a call-tree stage resolved against one cluster's tiers, so a
// running request never looks a tier up by name.
type node struct {
	stage    *Stage
	tier     *Tier
	pkts     int64 // RPC packets each way: 1 plus the stage's payload
	children []node
}

// plan returns root's call tree resolved against this cluster, compiling
// it on first use. Call trees are treated as immutable once submitted.
func (c *Cluster) plan(root *Stage) *node {
	if n, ok := c.plans[root]; ok {
		return n
	}
	var compile func(s *Stage) node
	compile = func(s *Stage) node {
		t := c.byName[s.Tier]
		if t == nil {
			panic(fmt.Sprintf("cluster: unknown tier %q in call tree", s.Tier))
		}
		n := node{stage: s, tier: t, pkts: int64(1 + s.Packets)}
		if len(s.Children) > 0 {
			n.children = make([]node, len(s.Children))
			for i, ch := range s.Children {
				n.children[i] = compile(ch)
			}
		}
		return n
	}
	n := compile(root)
	c.plans[root] = &n
	return &n
}

// frame is the execution state of one stage of one request: it waits for
// a connection slot, runs the stage's CPU work, runs the children, then
// releases the slot and reports to its parent (or, at the root, to the
// submitter). Frames come from the cluster's free list and return to it
// only after their outcome has been delivered; by then no waiter queue,
// job heap or pending event refers to them.
type frame struct {
	c      *Cluster
	n      *node
	parent *frame // nil at the root
	req    int64
	traced bool

	enqueue float64 // when the slot was requested
	start   float64 // when the slot was granted
	next    int     // sequential children: the running child; parallel: children outstanding
	ok      bool    // conjunction of the finished children's outcomes

	// root only: submission time and the submitter's callback
	submitted float64
	onDone    func(latency float64, dropped bool)

	workDone func() // runChildren, bound once per frame so scheduling it allocates nothing
}

func (c *Cluster) newFrame(n *node, parent *frame) *frame {
	var f *frame
	if k := len(c.frames) - 1; k >= 0 {
		f = c.frames[k]
		c.frames = c.frames[:k]
	} else {
		f = &frame{c: c}
		f.workDone = f.runChildren
	}
	f.n, f.parent = n, parent
	if parent != nil {
		f.req, f.traced = parent.req, parent.traced
	}
	return f
}

// Submit injects a request executing the given call tree. onDone is invoked
// exactly once, with the end-to-end latency in seconds and whether the
// request was dropped at some saturated admission queue.
func (c *Cluster) Submit(root *Stage, onDone func(latency float64, dropped bool)) {
	n := c.plan(root)
	start := c.Eng.Now()
	c.reqSeq++
	f := c.newFrame(n, nil)
	f.req = c.reqSeq
	f.traced = c.tracer != nil && c.traceRate > 0 &&
		(c.traceRate >= 1 || c.traceRNG.Float64() < c.traceRate)
	f.submitted, f.onDone = start, onDone
	c.execStage(f)
}

// execStage runs one stage: acquire a slot, execute CPU work under processor
// sharing, run children, then release the slot. Its outcome is delivered
// exactly once.
func (c *Cluster) execStage(f *frame) {
	t := f.n.tier
	// RPC request packets: caller sends, callee receives.
	t.netRx += f.n.pkts
	if f.parent != nil {
		f.parent.n.tier.netTx += f.n.pkts
	}
	f.enqueue = c.Eng.Now()
	if t.acquireSlot(f) {
		return
	}
	if f.traced {
		now := c.Eng.Now()
		c.tracer.Record(Span{Req: f.req, Tier: f.n.stage.Tier, Enqueue: f.enqueue, Start: now, End: now, Dropped: true})
	}
	c.deliver(f, false)
}

// admit runs once f holds a connection slot: it starts the stage's CPU
// work, after which the tier calls f.workDone.
func (f *frame) admit() {
	t, s := f.n.tier, f.n.stage
	f.start = t.eng.Now()
	if s.WriteBytes > 0 {
		t.recordWrite(s.WriteBytes)
	}
	work := 0.0
	if s.Work > 0 {
		work = t.rng.LogNormal(s.Work, t.cfg.WorkCV)
	}
	t.execWork(work, f)
}

// runChildren executes the stage's downstream calls once its CPU work is
// done; childDone finishes the stage after the last of them.
func (f *frame) runChildren() {
	kids := f.n.children
	if len(kids) == 0 {
		f.finish(true)
		return
	}
	c := f.c
	f.ok = true
	if f.n.stage.Parallel {
		f.next = len(kids)
		// f may be finished and recycled inside the last call; it is not
		// touched after it.
		for i := range kids {
			c.execStage(c.newFrame(&kids[i], f))
		}
		return
	}
	f.next = 0
	c.execStage(c.newFrame(&kids[0], f))
}

// childDone records one child's outcome: sequential stages start the next
// child (whatever the outcome), and the stage finishes with the
// conjunction of all outcomes once every child has reported.
func (f *frame) childDone(ok bool) {
	if !ok {
		f.ok = false
	}
	kids := f.n.children
	if f.n.stage.Parallel {
		f.next--
		if f.next == 0 {
			f.finish(f.ok)
		}
		return
	}
	f.next++
	if f.next == len(kids) {
		f.finish(f.ok)
		return
	}
	f.c.execStage(f.c.newFrame(&kids[f.next], f))
}

// finish completes an admitted stage: response packets, slot release, span.
func (f *frame) finish(ok bool) {
	c, t := f.c, f.n.tier
	// RPC response packets: callee replies, caller receives.
	t.netTx += f.n.pkts
	if f.parent != nil {
		f.parent.n.tier.netRx += f.n.pkts
	}
	t.releaseSlot()
	if f.traced {
		c.tracer.Record(Span{Req: f.req, Tier: f.n.stage.Tier, Enqueue: f.enqueue, Start: f.start, End: c.Eng.Now(), Dropped: !ok})
	}
	c.deliver(f, ok)
}

// deliver reports f's outcome to its parent, or completes the request at
// the root, and then recycles f.
func (c *Cluster) deliver(f *frame, ok bool) {
	if f.parent != nil {
		f.parent.childDone(ok)
	} else {
		c.completed++
		if !ok {
			c.droppedReqs++
		}
		if f.onDone != nil {
			f.onDone(c.Eng.Now()-f.submitted, !ok)
		}
	}
	f.parent, f.onDone = nil, nil
	c.frames = append(c.frames, f)
}
