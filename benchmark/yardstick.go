package main

import (
	"math/big"
	"math/rand"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// yardstick measures, all through an untraced run, what one fixed piece
// of CPU work costs on the host at that moment: a modular exponentiation
// of Paillier's shape (2048-bit exponent, 4096-bit modulus) on fixed
// operands, done by math/big alone, so that no change to this repo can
// make it faster or slower. A shared host slows the program and the
// yardstick alike — by up to 40 % for seconds or minutes at a time on
// the build host — and the time metrics are reported relative to it,
// which takes the host's spells out of them.
//
// It runs one exponentiation (12.5 ms) every refEvery on a thread of
// its own and times it by that thread's CPU clock, so sharing a core
// with the program's threads does not lengthen it, and takes 3 % of the
// two cores from every request alike. README.md ("The yardstick") has
// the measurements behind it.
type yardstick struct {
	mu      sync.Mutex
	samples []refSample
	stop    chan struct{}
	done    chan struct{}
}

// stretch is a piece of a run's wall-clock time.
type stretch struct{ from, to time.Time }

func (s stretch) seconds() float64 { return s.to.Sub(s.from).Seconds() }

type refSample struct {
	at   time.Time
	cpuS float64 // what the one exponentiation cost
}

const (
	refEvery = 200 * time.Millisecond
	// refNominal is what the exponentiation costs on the 2-vCPU build
	// host in a calm spell. A time metric is reported as measured times
	// refNominal over the cost seen while it was measured, so on a calm
	// host it reads as measured.
	refNominal = 0.0125
)

func startYardstick() *yardstick {
	r := rand.New(rand.NewSource(20170605))
	word := func(bits int) *big.Int {
		x := new(big.Int).Rand(r, new(big.Int).Lsh(big.NewInt(1), uint(bits-1)))
		return x.SetBit(x, bits-1, 1).SetBit(x, 0, 1)
	}
	base, exp, mod := word(4095), word(2048), word(4096)
	y := &yardstick{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(y.done)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		tick := time.NewTicker(refEvery)
		defer tick.Stop()
		out := new(big.Int)
		for {
			start := threadCPU()
			out.Exp(base, exp, mod)
			s := refSample{time.Now(), threadCPU() - start}
			y.mu.Lock()
			y.samples = append(y.samples, s)
			y.mu.Unlock()
			select {
			case <-y.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return y
}

func (y *yardstick) close() {
	close(y.stop)
	<-y.done
}

// over returns, for a stretch of the run, the factor that takes a time
// measured in it to the nominal host (refNominal over the mean cost of
// the samples taken in it) and the CPU seconds those samples used, which
// are not the program's. A stretch too short to hold a sample is held
// against the whole run's.
func (y *yardstick) over(s stretch) (scale, usedS float64) {
	y.mu.Lock()
	defer y.mu.Unlock()
	var sum, all float64
	n := 0
	for _, r := range y.samples {
		all += r.cpuS
		if !r.at.Before(s.from) && !r.at.After(s.to) {
			sum += r.cpuS
			n++
		}
	}
	if n == 0 {
		if len(y.samples) == 0 {
			return 1, 0
		}
		return refNominal / (all / float64(len(y.samples))), 0
	}
	return refNominal / (sum / float64(n)), sum
}

// threadCPU is the calling thread's CPU time so far.
func threadCPU() float64 {
	const rusageThread = 1 // RUSAGE_THREAD
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		return 0
	}
	return timeval(ru.Utime) + timeval(ru.Stime)
}

func timeval(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
