package main

import (
	"math"
	"syscall"
	"time"
)

// The host this benchmark runs on is a VM that shares its machine with
// others, and its speed wanders: by a fifth within seconds and by up to
// two times over tens of minutes (see README.md). Raw wall times of the
// same code therefore disagree between runs far more than any bound
// that could catch a regression. The benchmark does two things about
// it. It times work in process CPU time, which leaves out the time the
// host ran other guests instead of this one (the kernel's steal time).
// And it measures the host's speed as it goes, with a fixed calibration
// kernel timed between the segments of the work (before every
// experiment and halving generation), and reports times rescaled to a
// host on which one calibration pass takes calibNominal. (Set-up is
// calibrated differently, by a process that does nothing; see
// timeSetup.)
//
// The rescaling is partial: a time t measured while the passes around
// it took c on average is reported as t × (calibNominal/c)^calibElasticity.
// A pass is short, so c is a noisy reading of the host's speed over t,
// and the kernel and the simulator do not slow down alike; scaling by c
// in full adds that noise back.

// calibRefs is how many references one calibration pass simulates.
const calibRefs = 1_000_000

// calibNominal is the duration of one calibration pass on the nominal
// host the normalized times refer to: about what the reference host
// took (see README.md).
const calibNominal = 0.1

// calibElasticity is the exponent of the rescaling. On the reference
// host the least-squares slope of log iteration time on log mean pass
// time read between 0.45 and 0.8, depending on the workload and the
// hour. Over two sets of ten runs per workload (60 runs), exponents 0.5
// and 0.6 left the smallest worst-case spread of the run medians (10.6%
// and 8.7%, against 12.7% with 0.75, 19% with 1 and 13% with no
// rescaling). The lower one is used: the less of the rescaling is
// applied, the less a change in the kernel's own speed moves a result.
const calibElasticity = 0.5

// calibTags and calibMem are the calibration kernel's state, allocated
// and touched once so that no timed pass pays page faults.
var (
	calibTags []uint64
	calibMem  []uint32
	calibSink uint64
)

// cpuNow is the CPU time the process has used so far, user plus
// system, over all its threads.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("getrusage: " + err.Error())
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stopwatch reads wall-clock and CPU time together.
type stopwatch struct {
	wall time.Time
	cpu  time.Duration
}

func startStopwatch() stopwatch { return stopwatch{time.Now(), cpuNow()} }

// elapsed returns the wall-clock and CPU time since the stopwatch started.
func (s stopwatch) elapsed() (wall, cpu time.Duration) {
	return time.Since(s.wall), cpuNow() - s.cpu
}

// calibrate returns the CPU time of one pass of a fixed kernel that does the kind of work
// the simulator does: a 4-way LRU tag array (512 KiB) looked up by a mix
// of sequential and pseudo-random block addresses, with a counter in a
// 32 MiB array bumped on every miss. The array is larger than the
// host's last-level cache on purpose: with a 4 MiB one the passes
// tracked the workloads' speed much worse, because what slows the
// simulator on a busy host is mostly its misses to memory. The kernel is the benchmark's own
// code, so no change to the program moves it; only the host's speed
// does.
func calibrate() time.Duration {
	const sets, ways, memLen = 1 << 14, 4, 8 << 20
	if calibTags == nil {
		calibTags = make([]uint64, sets*ways)
		calibMem = make([]uint32, memLen)
		for i := range calibMem {
			calibMem[i] = 1
		}
	}
	tags, mem := calibTags, calibMem
	for i := range tags {
		tags[i] = 0
	}
	start := cpuNow()
	x := uint64(12345)
	var hits uint64
	for i := 0; i < calibRefs; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		a := (x >> 20) & (1<<26 - 1)
		if i&3 == 0 {
			a = uint64(i) * 64 & (1<<26 - 1)
		}
		blk := a >> 6
		s := int(blk&(sets-1)) * ways
		hit := false
		for w := 0; w < ways; w++ {
			if tags[s+w] == blk {
				hit = true
				copy(tags[s+1:s+w+1], tags[s:s+w])
				tags[s] = blk
				break
			}
		}
		if hit {
			hits++
			continue
		}
		copy(tags[s+1:s+ways], tags[s:s+ways-1])
		tags[s] = blk
		mem[a&(memLen-1)]++
	}
	d := cpuNow() - start
	calibSink += hits
	return d
}

// calibrator collects the calibration passes of one timed phase, taken
// between the segments of its work. A nil calibrator takes none.
type calibrator struct {
	samples []float64 // CPU seconds per pass, in order
}

// sample takes one calibration pass and returns its CPU time.
func (c *calibrator) sample() time.Duration {
	if c == nil {
		return 0
	}
	d := calibrate()
	c.samples = append(c.samples, d.Seconds())
	return d
}

// mark is the index the next sample will have.
func (c *calibrator) mark() int {
	if c == nil {
		return 0
	}
	return len(c.samples)
}

// normalize rescales a duration measured while the passes samples[from]
// through samples[to] (inclusive) ran around and inside it to the
// nominal host: d × (calibNominal ÷ their mean)^calibElasticity.
func (c *calibrator) normalize(d time.Duration, from, to int) float64 {
	sum := 0.0
	for _, s := range c.samples[from : to+1] {
		sum += s
	}
	mean := sum / float64(to-from+1)
	return d.Seconds() * math.Pow(calibNominal/mean, calibElasticity)
}
