// Package par runs independent work items over the machine's cores.
package par

import (
	"runtime"
	"sync"
)

// FanOut runs items 0..n-1 over min(GOMAXPROCS, n) goroutines and returns
// when all are done: each goroutine calls newWorker once — that is where a
// worker allocates the scratch it reuses — and the returned func for items
// w, w+workers, w+2·workers, …. Items must be independent and write only
// their own results, which makes the outcome the same at any worker count.
func FanOut(n int, newWorker func() func(item int)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			do := newWorker()
			for i := w; i < n; i += workers {
				do(i)
			}
		}(w)
	}
	wg.Wait()
}
