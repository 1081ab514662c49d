package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// class sorts an operation into the latency series it is reported in.
type class int

const (
	classRead  class = iota // point read / Order-Status, Stock-Level / dashboard refresh
	classWrite              // update / New-Order / COPY batch
	classOther              // counted as an op, reported in no latency series
)

// outcome is what one client operation reports back to the loop that timed
// it.
type outcome struct {
	class class
	// op marks an operation that counts toward ops_per_s (a YCSB op, a
	// transaction, a dashboard refresh); rt-analytics COPY batches do not.
	op bool
	// write marks an operation that changes data (the base of
	// wal.records_per_write).
	write bool
	err   error
}

// checkError marks a wrong output, as opposed to a failed or refused
// operation; any checkError makes the run incorrect.
type checkError struct{ error }

// recorder collects the latencies and failures of one measured window. It
// is shared by every client goroutine of the window.
type recorder struct {
	mu        sync.Mutex
	lat       [2][]time.Duration // indexed by classRead, classWrite
	ops       int64
	writes    int64
	attempted int64
	failed    int64
	// checkFails counts failed output checks (a subset of failed); any
	// makes the run incorrect.
	checkFails int64
	errs       []string
}

const maxKeptErrors = 8

func (r *recorder) add(o outcome, d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if o.err != nil {
		r.failed++
		var ce checkError
		if errors.As(o.err, &ce) {
			r.checkFails++
		}
		r.keep(o.err.Error())
		return
	}
	if o.op {
		r.ops++
	}
	if o.write {
		r.writes++
	}
	if o.class != classOther {
		r.lat[o.class] = append(r.lat[o.class], d)
	}
}

// checkFailed counts a failed output check: it is one attempted and failed
// operation, so a wrong answer weighs on error_rate like a refused request.
func (r *recorder) checkFailed(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	r.failed++
	r.checkFails++
	r.keep("check: " + err.Error())
}

func (r *recorder) keep(msg string) {
	if len(r.errs) < maxKeptErrors {
		r.errs = append(r.errs, msg)
	}
}

func (r *recorder) errorRate() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.attempted == 0 {
		return 0
	}
	return float64(r.failed) / float64(r.attempted)
}

// percentile returns the nearest-rank p-th percentile of sorted samples.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := rank(p, len(sorted)) - 1
	if idx < 0 {
		idx = 0
	}
	return sorted[idx]
}

// rank is the nearest rank of the p-th percentile among n samples.
func rank(p float64, n int) int { return int(math.Ceil(p * float64(n) / 100)) }

// tail is a latency tail reported with the percentile it was read at and
// the number of samples beyond that percentile.
type tail struct {
	value  time.Duration
	pct    float64
	beyond int
	ok     bool // false when even p90 had fewer than minBeyond samples beyond it
}

const minBeyond = 10

var tailLadder = []float64{99, 95, 90}

// tailOf applies the tail rule: the highest of p99/p95/p90 that has at
// least minBeyond samples beyond it. When none qualifies it falls back to
// p90 and reports ok=false.
func tailOf(sorted []time.Duration) tail {
	for _, p := range tailLadder {
		beyond := len(sorted) - rank(p, len(sorted))
		if beyond >= minBeyond {
			return tail{value: percentile(sorted, p), pct: p, beyond: beyond, ok: true}
		}
	}
	last := tailLadder[len(tailLadder)-1]
	beyond := len(sorted) - rank(last, len(sorted))
	return tail{value: percentile(sorted, last), pct: last, beyond: beyond}
}

func sortedCopy(d []time.Duration) []time.Duration {
	out := append([]time.Duration(nil), d...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// closedLoop runs one goroutine per client; each issues its next operation
// think after the previous one returned, until the window ends. The think
// time is not part of an operation's latency.
func closedLoop(clients int, window, think time.Duration, rec *recorder, op func(client int) outcome) {
	deadline := time.Now().Add(window)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				start := time.Now()
				o := op(c)
				rec.add(o, time.Since(start))
				if think > 0 {
					time.Sleep(think)
				}
			}
		}(c)
	}
	wg.Wait()
}

// openStats reports how an open-loop generator kept to its schedule.
type openStats struct {
	scheduled int             // operations due inside the window
	issued    int             // operations started
	lateness  []time.Duration // start time minus due time, per issued op
	backlog   int             // due inside the window but never started
}

// valid reports whether the generator kept up: a backlog above a tenth of
// the schedule means the system fell behind the offered rate, so the
// window's latencies describe a growing queue rather than the rate.
func (s openStats) valid() bool { return s.backlog*10 <= s.scheduled }

// poissonSchedule returns the due offsets of an open-loop generator whose
// arrivals are independent with the given mean gap, up to the window's end.
// Independent arrivals sample every phase of the system's own cycles (a
// dashboard refresh, a vacuum pass), where a fixed period would lock onto
// one phase for a whole run.
func poissonSchedule(rng *rand.Rand, mean, window time.Duration) []time.Duration {
	var due []time.Duration
	for at := time.Duration(0); ; {
		at += time.Duration(rng.ExpFloat64() * float64(mean))
		if at >= window {
			return due
		}
		due = append(due, at)
	}
}

// openLoop issues op i at start + due[i] regardless of how long earlier
// operations took, from a single generator goroutine. Each latency runs from
// the operation's due time, so one stalled operation charges the wait it
// imposes to every operation queued behind it. The generator stops issuing
// at the end of the window; what is still due then is the backlog.
func openLoop(due []time.Duration, window time.Duration, rec *recorder, op func(i int) outcome) openStats {
	start := time.Now()
	end := start.Add(window)
	st := openStats{scheduled: len(due)}
	for i, off := range due {
		at := start.Add(off)
		now := time.Now()
		if !now.Before(end) {
			st.backlog = st.scheduled - i
			break
		}
		if wait := at.Sub(now); wait > 0 {
			time.Sleep(wait)
			now = time.Now()
		}
		st.lateness = append(st.lateness, now.Sub(at))
		o := op(i)
		rec.add(o, time.Since(at))
		st.issued++
	}
	return st
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func fmtTail(name string, t tail, n int) string {
	s := fmt.Sprintf("%s = p%g of %d samples (%d beyond)", name, t.pct, n, t.beyond)
	if !t.ok {
		s += " [too few samples for the tail rule]"
	}
	return s
}
