package main

import (
	"runtime/metrics"
	"time"
)

// heapWatch samples the bytes held by heap objects (live and not yet swept)
// on its own goroutine and keeps the highest value seen: the heap
// high-water mark of the work running meanwhile.
type heapWatch struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

const heapObjects = "/memory/classes/heap/objects:bytes"

// heapInterval is the sampling period: short against every measured call,
// long enough that the sampler costs nothing measurable.
const heapInterval = 2 * time.Millisecond

// watchHeap starts sampling until stopWatch is called.
func watchHeap() *heapWatch {
	h := &heapWatch{stop: make(chan struct{}), done: make(chan struct{})}
	s := []metrics.Sample{{Name: heapObjects}}
	read := func() {
		metrics.Read(s)
		h.peak = max(h.peak, s[0].Value.Uint64())
	}
	read()
	go func() {
		defer close(h.done)
		tick := time.NewTicker(heapInterval)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				read()
				return
			case <-tick.C:
				read()
			}
		}
	}()
	return h
}

// stopWatch ends sampling, waits for the sampler to exit and returns the
// peak in bytes.
func (h *heapWatch) stopWatch() uint64 {
	close(h.stop)
	<-h.done
	return h.peak
}
