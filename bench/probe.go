package main

import "time"

// The speed probe. The speed of this box wanders, from outside the
// process, by a quarter and more for seconds to minutes at a time — and
// only for code that allocates and touches fresh memory, which is what
// every workload here does; a pure arithmetic loop holds steady through
// it. Left alone, that wander is the largest term in every timing, well
// above the bounds a regression gate needs.
//
// The probe is a fixed piece of work owned by the benchmark, half
// arithmetic and half allocation at the reference speed, so that it slows
// about as much as the program does (an allocation-only probe slows more
// and over-corrects). It runs for under a millisecond ten times a second
// beside the workload. Each statistics window carries the median probe
// rate reached in it, relative to probeReference, and every windowed
// timing is scaled by it: a rate is divided by the window's speed, a
// latency or a CPU time multiplied. The probe shares no code with the
// program, so no change to the program moves it.

const (
	probeEvery     = 100 * time.Millisecond
	probeAllocs    = 500
	probeXorshifts = 200_000
	// probeReference is the probe's rate, in probes per second, on the
	// reference box at its median speed. A speed of 1 means that box.
	probeReference = 1400.0
)

var probeSink uint64

// probeOnce runs the probe's work once and returns its rate in probes per
// second.
func probeOnce() float64 {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < probeXorshifts; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	for n := 0; n < probeAllocs; n++ {
		// a small map and a small slice, as a tracker or a decoded request holds
		m := make(map[int32]int32, 16)
		for i := int32(0); i < 24; i++ {
			m[i*7919] = i
		}
		s := make([]float64, 64)
		for i := range s {
			s[i] = float64(len(m) + i)
		}
		x += uint64(s[7])
	}
	probeSink += x
	return 1 / time.Since(t0).Seconds()
}

// probeSample is one probe reading.
type probeSample struct {
	at   time.Duration // since the prober started
	rate float64
}

// prober runs the probe every probeEvery until stopped.
type prober struct {
	stop    chan struct{}
	done    chan struct{}
	samples []probeSample
}

func startProber(start time.Time) *prober {
	p := &prober{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		tick := time.NewTicker(probeEvery)
		defer tick.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-tick.C:
				p.samples = append(p.samples, probeSample{rate: probeOnce(), at: time.Since(start)})
			}
		}
	}()
	return p
}

// finish stops the prober and returns its readings.
func (p *prober) finish() []probeSample {
	close(p.stop)
	<-p.done
	return p.samples
}

// speedOf is the box's speed relative to the reference over the readings
// taken in [from, to): their median rate over probeReference, or 1 when
// there is none (a phase shorter than the probe's period).
func speedOf(readings []probeSample, from, to time.Duration) float64 {
	var rates []float64
	for _, r := range readings {
		if r.at >= from && r.at < to {
			rates = append(rates, r.rate)
		}
	}
	if len(rates) == 0 {
		return 1
	}
	return medianF(rates) / probeReference
}
