package cluster

import (
	"container/heap"
	"testing"
	"testing/quick"
)

// refJobs is the container/heap job heap the typed one replaced.
type refJobs []psJob

func (h refJobs) Len() int            { return len(h) }
func (h refJobs) Less(i, j int) bool  { return h[i].vFinish < h[j].vFinish }
func (h refJobs) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refJobs) Push(x interface{}) { *h = append(*h, x.(psJob)) }
func (h *refJobs) Pop() interface{} {
	old := *h
	j := old[len(old)-1]
	*h = old[:len(old)-1]
	return j
}

// Property: for any interleaving of pushes and pops with heavily tied
// finish times, the typed job heap pops the same jobs in the same order as
// container/heap, so equal-vFinish completions keep their historic order.
func TestJobHeapMatchesContainerHeap(t *testing.T) {
	f := func(ops []uint8) bool {
		var got jobHeap
		var ref refJobs
		frames := make([]frame, len(ops))
		for i, o := range ops {
			if o%3 == 0 && len(got) > 0 {
				if got.pop() != heap.Pop(&ref).(psJob) {
					return false
				}
				continue
			}
			j := psJob{vFinish: float64(o % 4), f: &frames[i]}
			got.push(j)
			heap.Push(&ref, j)
		}
		for len(got) > 0 {
			if got.pop() != heap.Pop(&ref).(psJob) {
				return false
			}
		}
		return len(ref) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}
