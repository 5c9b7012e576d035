package parallel

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// spin burns the processor for d without blocking, like a scan block.
func spin(d time.Duration) {
	for t0 := time.Now(); time.Since(t0) < d; {
	}
}

// TestDoYieldsBetweenTasks pins the pool's yield: on a single P, a
// goroutine made runnable while a pool of ~1 ms tasks runs gets the
// processor before the pool finishes two more tasks, instead of waiting
// out Go's 10 ms preemption slice. This is the wait a server handler
// woken by its network read or write would otherwise pay behind build
// workers.
func TestDoYieldsBetweenTasks(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const n, wakeAt = 40, 5
	for _, workers := range []int{1, 2} {
		var done atomic.Int64
		started, ready := make(chan struct{}), make(chan struct{})
		ranAfter := make(chan int64, 1)
		go func() {
			close(started)
			<-ready
			ranAfter <- done.Load()
		}()
		<-started
		err := Do(n, workers, func(i int) error {
			if i == wakeAt {
				close(ready)
			}
			spin(time.Millisecond)
			done.Add(1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		// done counts finished tasks; the waking task itself is one of
		// them, so the woken goroutine must see at most wakeAt+2.
		if got := <-ranAfter; got > wakeAt+2 {
			t.Errorf("workers=%d: woken goroutine ran after %d tasks, want ≤ %d (woken during task %d)",
				workers, got, wakeAt+2, wakeAt)
		}
	}
}
