package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Host speed calibration. The reference host is a 2-CPU VM whose cores are
// shared with neighbouring machines: when they are busy, everything on it —
// wall time and CPU time alike — runs up to half again slower, for tens of
// seconds at a time. A run therefore interleaves rounds of a fixed
// calibration workload with its operations and scales every time it
// reports to the speed at which a round takes calibRefMS. The calibration
// uses only the standard library (map inserts, a string sort, a JSON round
// trip: the allocation-heavy, pointer-chasing mix the analyzer runs).
//
// No process of the system under test may run during a round, or work it
// does in the background (garbage collection, a cache flush, a watcher's
// polls) would slow the round, shrink the factor and make a regression read
// as a gain. The CLIs have exited by the time a round starts; a long-lived
// watcher or daemon is stopped with SIGSTOP for the round and continued
// after it, so its background work lands in the operations that follow,
// where it belongs. Raw, unscaled values are kept in the run's result file.

// calibRefMS is a calibration round's median time on the reference host
// when its neighbours are idle.
const calibRefMS = 15.0

// calibExp is how strongly the workloads follow the calibration: on the
// reference host, a slowdown that stretches a round by a factor k
// stretches the workloads' times by about k^0.85, since part of each
// operation — I/O, process start, waiting — is not slowed like the CPU.
// Log-log fits over runs at many neighbour loads gave 0.6 to 0.9 per
// metric; 0.85 gave the smallest largest spread between seeds over three
// sets of ten runs per workload, taken at two levels of neighbour load.
const calibExp = 0.85

// calibSpan is how far from an operation the rounds that scale it may lie.
const calibSpan = 2.0 // seconds

// calibEvery is the round interval where operations overlap (served-mix);
// the serial workloads run a round after every operation.
const calibEvery = 250 * time.Millisecond

// calibrator collects one run's calibration rounds. Rounds and operations
// are timed in seconds from base.
type calibrator struct {
	base   time.Time
	frozen int // pid of the live process under test, stopped during rounds; 0 for none
	at     []float64
	ms     []float64
	spent  time.Duration
}

func (c *calibrator) since() float64 { return time.Since(c.base).Seconds() }

// round times one calibration round, with the process under test stopped.
func (c *calibrator) round() error {
	if c.frozen != 0 {
		defer syscall.Kill(c.frozen, syscall.SIGCONT) // on every path: freeze may fail after SIGSTOP
		if err := freeze(c.frozen); err != nil {
			return err
		}
	}
	t0 := time.Now()
	calibWork()
	d := time.Since(t0)
	c.at = append(c.at, t0.Sub(c.base).Seconds())
	c.ms = append(c.ms, float64(d)/1e6)
	c.spent += d
	return nil
}

// freeze sends pid SIGSTOP and waits until every one of its threads has
// stopped: the signal stops each thread only when the kernel next schedules
// it.
func freeze(pid int) error {
	if err := syscall.Kill(pid, syscall.SIGSTOP); err != nil {
		return fmt.Errorf("stopping pid %d for calibration: %w", pid, err)
	}
	deadline := time.Now().Add(time.Second)
	for {
		running, err := threadsRunning(pid)
		if err != nil || running == 0 {
			return err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("pid %d: %d threads still running 1s after SIGSTOP", pid, running)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// threadsRunning counts pid's threads that are neither stopped nor dead.
func threadsRunning(pid int) (int, error) {
	tasks, err := os.ReadDir(fmt.Sprintf("/proc/%d/task", pid))
	if err != nil {
		return 0, err
	}
	n := 0
	for _, t := range tasks {
		data, err := os.ReadFile(fmt.Sprintf("/proc/%d/task/%s/stat", pid, t.Name()))
		if err != nil {
			continue // the thread exited
		}
		// The state is the first field after the parenthesised command name.
		s := string(data)
		if i := strings.LastIndexByte(s, ')'); i >= 0 && i+2 < len(s) {
			switch s[i+2] {
			case 'T', 't', 'Z', 'X':
				continue
			}
		}
		n++
	}
	return n, nil
}

// scale is the run's factor from measured to reference-speed time.
func (c *calibrator) scale() float64 {
	return math.Pow(calibRefMS/median(c.ms), calibExp)
}

// scaleAt is the factor for a time measured at t, from the rounds within
// calibSpan of it (the run's factor when there are none).
func (c *calibrator) scaleAt(t float64) float64 {
	var near []float64
	for i, a := range c.at {
		if math.Abs(a-t) <= calibSpan {
			near = append(near, c.ms[i])
		}
	}
	if len(near) == 0 {
		return c.scale()
	}
	return math.Pow(calibRefMS/median(near), calibExp)
}

var calibSink int

// calibWork is the fixed calibration workload.
func calibWork() {
	const n = 35000
	m := make(map[string]int)
	keys := make([]string, 0, n)
	for i := 0; i < n; i++ {
		k := "k" + strconv.Itoa(i*7919%100003)
		m[k] = i
		keys = append(keys, k)
	}
	sort.Strings(keys)
	type rec struct {
		Key  string
		Val  int
		Near []int
	}
	recs := make([]rec, n/20)
	for i := range recs {
		recs[i] = rec{keys[i], m[keys[i]], []int{i, i + 1, i + 2}}
	}
	data, _ := json.Marshal(recs) // plain structs always marshal
	var back []rec
	_ = json.Unmarshal(data, &back)
	calibSink += len(back) + len(m)
}
