package main

import (
	"math"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// refClock measures how fast the host runs right now. A shared host's
// speed drifts by 10–20% over seconds to minutes as neighbours come and go
// (the cost of a fixed computation varied that much on the 2-vCPU Xeon VM
// this benchmark was built on), and process CPU time follows it. The clock
// times a fixed reference computation — the benchmark's own code, so no
// change to the program moves it — on its own OS thread every refEvery,
// and the CPU-time metrics are scaled by refNominal over its mean cost in
// the same interval: they then read in milliseconds of a host that runs
// the reference computation in refNominal.
type refClock struct {
	mu      sync.Mutex
	samples []refSample
	stop    chan struct{}
	done    chan struct{}
}

type refSample struct {
	at   time.Time
	cost time.Duration // thread CPU time of one reference computation
}

const (
	refEvery = 50 * time.Millisecond
	// refNominal is about the reference computation's median cost on an
	// idle core of the build host (Intel Xeon, 2 vCPU), where it read the
	// same under the benchmark's own load; it only fixes the unit of the
	// scaled metrics.
	refNominal = 580 * time.Microsecond
)

func startRefClock() *refClock {
	c := &refClock{stop: make(chan struct{}), done: make(chan struct{})}
	go c.loop()
	return c
}

func (c *refClock) loop() {
	defer close(c.done)
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	ws := newRefWork()
	t := time.NewTicker(refEvery)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
		}
		at := time.Now()
		t0 := threadCPU()
		ws.run()
		cost := threadCPU() - t0
		c.mu.Lock()
		c.samples = append(c.samples, refSample{at, cost})
		c.mu.Unlock()
	}
}

// close stops the clock and waits for its goroutine.
func (c *refClock) close() {
	close(c.stop)
	<-c.done
}

// over returns the mean cost of the reference computations started in
// [from, to), the CPU time they used and their number.
func (c *refClock) over(from, to time.Time) (mean, used time.Duration, n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, s := range c.samples {
		if !s.at.Before(from) && s.at.Before(to) {
			used += s.cost
			n++
		}
	}
	if n > 0 {
		mean = used / time.Duration(n)
	}
	return mean, used, n
}

// scaledCPU is the process CPU time spent in [from, to) less the clock's
// own, scaled to the reference speed. Without samples in the interval it
// uses every sample taken so far.
func (c *refClock) scaledCPU(cpu time.Duration, from, to time.Time) time.Duration {
	mean, used, n := c.over(from, to)
	if n == 0 {
		mean, _, n = c.over(time.Time{}, time.Now())
		used = 0
	}
	if n == 0 || mean <= 0 {
		return cpu
	}
	return time.Duration(float64(cpu-used) * float64(refNominal) / float64(mean))
}

// refWork is the reference computation: dynamic-programming passes over
// two float series, the arithmetic and L1 traffic of the distance kernels.
type refWork struct {
	a, b, row []float64
	sink      float64
}

func newRefWork() *refWork {
	w := &refWork{a: make([]float64, 96), b: make([]float64, 96), row: make([]float64, 97)}
	for i := range w.a {
		w.a[i] = math.Sin(float64(i) * 0.37)
		w.b[i] = math.Cos(float64(i) * 0.23)
	}
	return w
}

func (w *refWork) run() {
	for rep := 0; rep < 8; rep++ {
		row := w.row
		for j := range row {
			row[j] = math.Inf(1)
		}
		row[0] = 0
		for i := range w.a {
			diag := row[0]
			row[0] = math.Inf(1)
			for j := range w.b {
				up := row[j+1]
				row[j+1] = math.Abs(w.a[i]-w.b[j]) + min(diag, up, row[j])
				diag = up
			}
		}
		w.sink += row[len(row)-1]
	}
}

// clockCPU reads a CPU-time clock. getrusage is no substitute: it splits
// CPU time into user and system by sampled ticks and can read a
// millisecond of work as a few microseconds.
func clockCPU(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0 // both clocks exist on every supported platform
	}
	return time.Duration(ts.Nano())
}

// threadCPU is the calling OS thread's CPU time.
func threadCPU() time.Duration { return clockCPU(3 /* CLOCK_THREAD_CPUTIME_ID */) }

// cpuTime is the process's CPU time so far, over all threads.
func cpuTime() time.Duration { return clockCPU(2 /* CLOCK_PROCESS_CPUTIME_ID */) }
