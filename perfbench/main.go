// Command perfbench is the repository's benchmark. It boots an in-process
// 4+1 Citus cluster, drives one of three workloads against it for a fixed
// window, checks the outputs, and prints every metric by name and unit:
//
//	go run . --workload crud-ha --seed 1 --seconds 30 --trace 0
//
// Workloads: crud-ha (MX point reads and updates with sync standbys and a
// small buffer pool), tenant-tpcc (TPC-C transactions with 2PC) and
// rt-analytics (open-loop COPY ingest next to ILIKE and TopN dashboards).
//
// With --trace 0 tracing is off and the end-to-end metrics are printed; the
// cluster is set up three times and setup_s is the median. With --trace 1
// the workload runs half the window untraced and half traced, and the
// per-layer ledger is printed. The last line of standard output is one
// JSON object with the keys correct, attempted, failed and metrics. The
// exit code is 1 when an output check failed and 2 when the run could not
// be made.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"

	"citusgo/internal/trace"
)

const (
	setupRepeats = 3
	// deadline bounds a whole invocation; a hung run exits rather than
	// holding the caller.
	deadline = 170 * time.Second
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "crud-ha", "crud-ha, tenant-tpcc or rt-analytics")
	seed := flag.Int64("seed", 1, "seed of the generated data and operation streams")
	seconds := flag.Int("seconds", 30, "length of the measured window")
	traced := flag.Int("trace", 0, "1 prints the per-layer ledger of a traced run instead of the end-to-end metrics")
	flag.Parse()
	w, err := workloadByName(*name)
	if err != nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench:", err, "(usage: --workload <name> --seed <n> --seconds <n> --trace 0|1)")
		os.Exit(2)
	}
	time.AfterFunc(deadline, func() {
		fmt.Fprintf(os.Stderr, "perfbench: %s did not finish within %v\n", w.name, deadline)
		os.Exit(2)
	})
	fmt.Printf("workload %s seed %d window %ds: %s\n", w.name, *seed, *seconds, w.setup)
	window := time.Duration(*seconds) * time.Second
	var res result
	if *traced == 1 {
		res, err = runTraced(w, *seed, window)
	} else {
		res, err = runEndToEnd(w, *seed, window)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-34s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

var untraced = trace.Config{SampleRate: -1}

// measured is one window of traffic.
type measured struct {
	rec     *recorder
	elapsed time.Duration
	cpu     time.Duration
}

func measure(in instance, window time.Duration) measured {
	rec := &recorder{}
	cpu0 := processCPU()
	start := time.Now()
	in.drive(window, rec)
	return measured{rec: rec, elapsed: time.Since(start), cpu: processCPU() - cpu0}
}

// checkRun runs the post-run checks and counts each failure in rec.
func checkRun(w workload, in instance, rec *recorder) {
	for _, err := range in.check() {
		rec.checkFailed(err)
	}
	errRate := rec.errorRate()
	rec.mu.Lock()
	defer rec.mu.Unlock()
	fmt.Printf("%s: %d attempted, %d failed (%d failed checks), error_rate %.6f\n",
		w.name, rec.attempted, rec.failed, rec.checkFails, errRate)
	for _, e := range rec.errs {
		fmt.Println("  failure:", e)
	}
}

func runEndToEnd(w workload, seed int64, window time.Duration) (result, error) {
	var setups []float64
	var in instance
	for i := 0; i < setupRepeats; i++ {
		if in != nil {
			in.close()
		}
		start := time.Now()
		var err error
		in, err = w.boot(seed, untraced, nil)
		if err != nil {
			return result{}, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer in.close()
	m := measure(in, window)
	checkRun(w, in, m.rec)
	for _, n := range in.notes() {
		fmt.Println(n)
	}
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)

	rec := m.rec
	reads, writes := sortedCopy(rec.lat[classRead]), sortedCopy(rec.lat[classWrite])
	rt, wt := tailOf(reads), tailOf(writes)
	fmt.Println(fmtTail("read_tail_ms", rt, len(reads)))
	fmt.Println(fmtTail("write_tail_ms", wt, len(writes)))
	fmt.Println("read ms by decile: ", deciles(reads))
	fmt.Println("write ms by decile:", deciles(writes))
	sort.Float64s(setups)
	fmt.Printf("setup_s: median of %v\n", setups)
	metrics := map[string]metric{
		"setup_s":       {setups[len(setups)/2], "s"},
		"ops_per_s":     {float64(rec.ops) / m.elapsed.Seconds(), "1/s"},
		"read_p50_ms":   {ms(percentile(reads, 50)), "ms"},
		"read_tail_ms":  {ms(rt.value), "ms"},
		"write_p50_ms":  {ms(percentile(writes, 50)), "ms"},
		"write_tail_ms": {ms(wt.value), "ms"},
		"success_rate":  {1 - rec.errorRate(), "ratio"},
		"cpu_ms_per_op": {ratio(ms(m.cpu), float64(rec.ops)), "ms"},
		"heap_mb":       {float64(mem.HeapAlloc) / (1 << 20), "MiB"},
	}
	return result{Correct: rec.checkFails == 0, Attempted: rec.attempted, Failed: rec.failed, Metrics: metrics}, nil
}

func runTraced(w workload, seed int64, window time.Duration) (result, error) {
	// Both clusters are booted before either half runs, so the two halves
	// run in a process in the same state (heap size, resident memory).
	half := window / 2
	base, err := w.boot(seed, untraced, nil)
	if err != nil {
		return result{}, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	defer base.close()
	in, l, err := bootTraced(w, seed)
	if err != nil {
		return result{}, fmt.Errorf("%s traced set-up: %w", w.name, err)
	}
	defer in.close()

	bm := measure(base, half)
	baseOpsPerS := float64(bm.rec.ops) / bm.elapsed.Seconds()
	rec, layers, notes := runLedger(in, l, half, baseOpsPerS)
	for _, n := range notes {
		fmt.Println(n)
	}
	checkRun(w, base, bm.rec)
	checkRun(w, in, rec)
	metrics := map[string]metric{}
	for _, nu := range perLayerNames {
		metrics[nu[0]] = metric{layers[nu[0]], nu[1]}
	}
	return result{
		Correct:   bm.rec.checkFails == 0 && rec.checkFails == 0,
		Attempted: bm.rec.attempted + rec.attempted,
		Failed:    bm.rec.failed + rec.failed,
		Metrics:   metrics,
	}, nil
}

// deciles formats p10..p90 of sorted samples in milliseconds.
func deciles(sorted []time.Duration) string {
	out := ""
	for p := 10.0; p < 100; p += 10 {
		out += fmt.Sprintf(" %.2f", ms(percentile(sorted, p)))
	}
	return out
}

// bootTraced sets w up with tracing always on and the ledger's timers
// wrapped around the hooks before any traffic.
func bootTraced(w workload, seed int64) (instance, *ledger, error) {
	l := &ledger{}
	in, err := w.boot(seed, trace.Config{SampleRate: 1, RingSize: traceRing}, l.install)
	return in, l, err
}

// runLedger drives a traced instance for the window and returns its
// per-layer report.
func runLedger(in instance, l *ledger, window time.Duration, baseOpsPerS float64) (*recorder, map[string]float64, []string) {
	before := readCounters(in.cluster())
	l.on.Store(true)
	rec := &recorder{}
	in.drive(window, rec)
	l.on.Store(false)
	after := readCounters(in.cluster())
	layers, notes := layerReport(in.cluster(), l, rec, before, after, baseOpsPerS)
	return rec, layers, append(notes, in.notes()...)
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
