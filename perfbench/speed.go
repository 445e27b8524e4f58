package main

import (
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The host's speed drifts: on a shared 2-vCPU host the same pass of the
// same code ran 25-60% slower or faster from one run set to the next, with
// no steal time, and the process's CPU time drifted with its wall time.
// So every timing metric is reported at a reference host speed. A probe
// goroutine runs a fixed burst of work every probeEvery for the whole run
// and measures the burst's thread CPU time; a time measured over a window
// is scaled by refBurst ÷ the mean burst time in that window, and a rate
// by its inverse. Bursts take about 3% of one CPU.
const (
	probeEvery = 50 * time.Millisecond
	// refBurst is the burst's thread CPU time on the reference host (the
	// 2-vCPU host of ledger.json's baseline), so normalized figures read
	// close to raw ones there.
	refBurst = 1600 * time.Microsecond
)

// speedSample is one burst: when it ended and the CPU time it took.
type speedSample struct {
	at  time.Time
	cpu time.Duration
}

// speedProbe samples the host's speed until stopped.
type speedProbe struct {
	mu      sync.Mutex
	samples []speedSample
	stop    chan struct{}
	done    chan struct{}
}

// startSpeedProbe starts sampling on a goroutine locked to its own OS
// thread, so that thread CPU time measures the burst alone.
func startSpeedProbe() *speedProbe {
	p := &speedProbe{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		b := newBurst()
		tick := time.NewTicker(probeEvery)
		defer tick.Stop()
		for {
			c0 := threadCPU()
			b.run()
			s := speedSample{at: time.Now(), cpu: threadCPU() - c0}
			p.mu.Lock()
			p.samples = append(p.samples, s)
			p.mu.Unlock()
			select {
			case <-p.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return p
}

// close stops the probe, waits for its goroutine to end and prints how
// fast the host ran.
func (p *speedProbe) close() {
	close(p.stop)
	<-p.done
	var sum time.Duration
	for _, s := range p.samples {
		sum += s.cpu
	}
	report("speed probe: %d bursts, mean %.4f ms (reference %.4f ms)", len(p.samples), ms(sum)/float64(max(len(p.samples), 1)), ms(refBurst))
}

// minWindow is the shortest window factor averages over: shorter ones
// are widened around their middle, so that about twenty bursts count.
const minWindow = time.Second

// factor is refBurst ÷ the mean burst CPU time of the bursts that ended
// in [from, to], widened to minWindow: below 1 when the host ran slower
// than the reference. Multiply a time measured in the window by it,
// divide a rate by it. A window that reaches into the future is waited
// for.
func (p *speedProbe) factor(from, to time.Time) (float64, error) {
	if w := minWindow - to.Sub(from); w > 0 {
		from, to = from.Add(-w/2), to.Add(w/2)
	}
	if wait := time.Until(to.Add(probeEvery)); wait > 0 {
		time.Sleep(wait)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	var sum time.Duration
	n := 0
	for _, s := range p.samples {
		if !s.at.Before(from) && !s.at.After(to) {
			sum += s.cpu
			n++
		}
	}
	if n == 0 || sum <= 0 {
		return 0, fmt.Errorf("speed probe: no burst measured between %s and %s", from.Format(time.StampMilli), to.Format(time.StampMilli))
	}
	return float64(refBurst) * float64(n) / float64(sum), nil
}

// burst is the probe's fixed work: dependent arithmetic on a 4 KB table
// that stays in the core's own cache. So it measures the core's speed
// (its clock, and the other tenants sharing it) without depending on how
// much of the shared cache the benchmarked code itself occupies, which a
// later change to that code may alter. It allocates nothing.
type burst struct {
	small [512]uint64
	x     uint64
	sink  uint64
}

// burstIters sizes a burst to about refBurst on the reference host.
const burstIters = 500000

func newBurst() *burst { return &burst{x: 88172645463325252} }

func (b *burst) run() {
	x, s := b.x, b.sink
	for i := 0; i < burstIters; i++ {
		x = xorshift(x)
		j := x & 511
		b.small[j] += x
		s += b.small[(j*7)&511] * (x | 1)
	}
	b.x, b.sink = x, s
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// threadCPU is the calling OS thread's CPU time, from
// CLOCK_THREAD_CPUTIME_ID: the scheduler's exact run time. (getrusage's
// per-thread figure is sampled at clock ticks, too coarse for a burst.)
func threadCPU() time.Duration {
	var ts syscall.Timespec
	// Cannot fail: the clock id is valid and ts is writable.
	_, _, _ = syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// clockThreadCPUTimeID is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTimeID = 3
