package main

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

func samples(n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(i+1) * time.Millisecond
	}
	return out
}

// every is a fixed-period schedule of n operations.
func every(gap time.Duration, n int) []time.Duration {
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(i) * gap
	}
	return due
}

func TestPoissonSchedule(t *testing.T) {
	const mean, window = 80 * time.Millisecond, 400 * time.Second
	a := poissonSchedule(rand.New(rand.NewSource(1)), mean, window)
	b := poissonSchedule(rand.New(rand.NewSource(1)), mean, window)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two schedules")
	}
	if n := len(a); n < 4750 || n > 5250 {
		t.Fatalf("%d arrivals in %v at a mean gap of %v, want about 5000", n, window, mean)
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] || a[i] >= window {
			t.Fatalf("due[%d] = %v out of order or past the window", i, a[i])
		}
	}
}

func TestTailRule(t *testing.T) {
	for _, tc := range []struct {
		n      int
		pct    float64
		beyond int
		ok     bool
	}{
		{1000, 99, 10, true},
		{999, 95, 49, true},
		{200, 95, 10, true},
		{199, 90, 19, true},
		{100, 90, 10, true},
		{99, 90, 9, false},
	} {
		got := tailOf(samples(tc.n))
		if got.pct != tc.pct || got.beyond != tc.beyond || got.ok != tc.ok {
			t.Errorf("n=%d: got p%g with %d beyond (ok %v), want p%g with %d beyond (ok %v)",
				tc.n, got.pct, got.beyond, got.ok, tc.pct, tc.beyond, tc.ok)
		}
		if want := time.Duration(tc.n-tc.beyond) * time.Millisecond; got.value != want {
			t.Errorf("n=%d: tail %v, want %v", tc.n, got.value, want)
		}
	}
}

// A stalled operation delays the ones queued behind it, and their
// latencies, measured from their due times, carry that delay.
func TestOpenLoopChargesStall(t *testing.T) {
	rec := &recorder{}
	st := openLoop(every(10*time.Millisecond, 10), 100*time.Millisecond, rec, func(i int) outcome {
		if i == 2 {
			time.Sleep(45 * time.Millisecond)
		}
		return outcome{class: classWrite}
	})
	if st.scheduled != 10 || st.issued != 10 || st.backlog != 0 || !st.valid() {
		t.Fatalf("scheduled %d issued %d backlog %d valid %v, want 10/10/0/true", st.scheduled, st.issued, st.backlog, st.valid())
	}
	lat := rec.lat[classWrite]
	// op 2 was due at 20ms and ran until >= 65ms; op 3 was due at 30ms.
	if lat[2] < 45*time.Millisecond {
		t.Errorf("stalled op latency %v, want >= 45ms", lat[2])
	}
	if lat[3] < 35*time.Millisecond || st.lateness[3] < 35*time.Millisecond {
		t.Errorf("op after the stall: latency %v, lateness %v, want both >= 35ms", lat[3], st.lateness[3])
	}
	if lat[0] > 5*time.Millisecond {
		t.Errorf("op before the stall: latency %v, want < 5ms", lat[0])
	}
}

func TestOpenLoopBacklogInvalidatesRun(t *testing.T) {
	rec := &recorder{}
	st := openLoop(every(10*time.Millisecond, 10), 100*time.Millisecond, rec, func(int) outcome {
		time.Sleep(30 * time.Millisecond)
		return outcome{class: classWrite}
	})
	if st.backlog == 0 || st.valid() || st.issued+st.backlog != st.scheduled {
		t.Fatalf("issued %d backlog %d of %d, valid %v: want a backlog that invalidates the run",
			st.issued, st.backlog, st.scheduled, st.valid())
	}
}

func TestFailureCounting(t *testing.T) {
	rec := &recorder{}
	rec.add(outcome{class: classRead, op: true}, time.Millisecond)
	rec.add(outcome{class: classWrite, op: true, write: true}, time.Millisecond)
	rec.add(outcome{class: classWrite, op: true, write: true, err: errors.New("deadlock victim")}, time.Millisecond)
	rec.add(outcome{class: classRead, op: true, err: checkError{errors.New("stale read")}}, time.Millisecond)
	rec.checkFailed(errors.New("w_ytd mismatch"))
	if rec.attempted != 5 || rec.failed != 3 || rec.checkFails != 2 {
		t.Fatalf("attempted %d failed %d checkFails %d, want 5/3/2", rec.attempted, rec.failed, rec.checkFails)
	}
	if rec.ops != 2 || rec.writes != 1 || len(rec.lat[classRead]) != 1 || len(rec.lat[classWrite]) != 1 {
		t.Fatalf("failed ops leaked into completed counts: ops %d writes %d", rec.ops, rec.writes)
	}
	if got := rec.errorRate(); got != 0.6 {
		t.Fatalf("error rate %v, want 0.6", got)
	}
}
