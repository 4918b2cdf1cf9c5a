package multicore

import (
	"slices"
	"testing"

	"repro/internal/config"
	"repro/internal/sim"
	"repro/internal/trace"
)

// scriptCore is a stub core that works at scripted global cycles and sleeps
// in between: each work step retires one instruction and announces, through
// NextActive, the cycle of the next one — the following cycle (a core
// polling on a lock), a few cycles on, or hundreds (a miss penalty).
type scriptCore struct {
	t      *testing.T
	id     int
	strict bool  // being stepped while asleep fails the test
	next   int64 // cycle of the next work step
	left   int   // work steps left
	calls  int   // Step calls received
	work   int   // of which work steps
	done   bool
	finish int64
	// log is the run's shared record of work steps, in the order the
	// driver made them.
	log *[]workStep
}

type workStep struct {
	now  int64
	core int
}

func (c *scriptCore) Step(now int64) {
	c.calls++
	switch {
	case c.done:
		c.t.Errorf("core %d stepped at cycle %d after it finished", c.id, now)
		return
	case now < c.next:
		if c.strict {
			c.t.Errorf("core %d stepped at cycle %d, asleep until %d", c.id, now, c.next)
		}
		return
	case now > c.next:
		c.t.Errorf("core %d stepped at cycle %d, past its wake time %d", c.id, now, c.next)
	}
	*c.log = append(*c.log, workStep{now, c.id})
	c.work++
	if c.left--; c.left == 0 {
		c.done, c.finish = true, now
		return
	}
	h := (uint64(c.id+1)*2654435761 + uint64(c.left)*40503) >> 4
	c.next = now + []int64{1, 1, 2, 3, 7, 50, 700}[h%7]
}

func (c *scriptCore) NextActive(now int64) int64 {
	if c.next > now {
		return c.next
	}
	return now
}
func (c *scriptCore) Done() bool        { return c.done }
func (c *scriptCore) Retired() uint64   { return uint64(c.work) }
func (c *scriptCore) FinishTime() int64 { return c.finish }

// runScripted runs n scripted cores (core 1 already done when handed over,
// the others with work counts that differ) and returns the result, the
// cores and the order of their work steps. With stepAll set the driver
// steps every core every cycle.
func runScripted(t *testing.T, n int, strict, stepAll bool) (Result, []*scriptCore, []workStep) {
	t.Helper()
	var log []workStep
	cores := make([]*scriptCore, n)
	cfg := RunConfig{
		Machine: config.Default(n),
		Model:   OneIPC, // built, then replaced by the scripted core
		newCore: func(i int, _ sim.Core) sim.Core {
			c := &scriptCore{t: t, id: i, strict: strict, left: 40 + 25*i, log: &log}
			if i == 1 {
				c.left, c.done = 0, true
			}
			cores[i] = c
			if stepAll {
				return everyCycle{c}
			}
			return c
		},
	}
	res := Run(cfg, make([]trace.Stream, n))
	return res, cores, log
}

// TestDriverNeverStepsSleepingCore: between a core's Step and the wake time
// it announced right after, the driver neither steps it nor needs to — the
// result, and the order in which awake cores are visited within a cycle,
// are those of stepping every core every cycle.
func TestDriverNeverStepsSleepingCore(t *testing.T) {
	for _, n := range []int{1, 4, 5} { // 5: the rotation is not a mask
		want, _, wantLog := runScripted(t, n, false, true)
		got, cores, gotLog := runScripted(t, n, true, false)
		if got.Cycles != want.Cycles || !slices.Equal(got.Cores, want.Cores) || got.TimedOut || got.TotalRetired == 0 {
			t.Errorf("%d cores: result %+v, stepping every cycle gives %+v", n, got, want)
		}
		if !slices.Equal(gotLog, wantLog) {
			t.Errorf("%d cores: work steps were made in another order than when stepping every cycle", n)
		}
		for i, c := range cores {
			if c.calls != c.work {
				t.Errorf("%d cores: core %d was stepped %d times for %d work steps", n, i, c.calls, c.work)
			}
		}
	}
}
