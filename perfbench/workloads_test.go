package main

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"citusgo/internal/types"
	"citusgo/internal/workload/gharchive"
)

// The same seed gives the same operation streams; another seed does not.
func TestOpStreamsDeterministic(t *testing.T) {
	streams := map[string]func(seed int64) []string{
		"crud-ha": func(seed int64) []string {
			g := newCrudGen(seed, 1, 0)
			var out []string
			for i := 0; i < 500; i++ {
				out = append(out, fmt.Sprint(g.next()))
			}
			return out
		},
		"tenant-tpcc": func(seed int64) []string {
			g := newTPCCGen(seed, 1, 0)
			var out []string
			for i := 0; i < 500; i++ {
				out = append(out, g.next().call)
			}
			return out
		},
		"rt-analytics": func(seed int64) []string {
			var out []string
			for _, row := range gharchive.NewGenerator(seed, rtEventDays).Batch(200) {
				out = append(out, types.Format(row[0])+types.Format(row[1]))
			}
			return out
		},
	}
	for name, gen := range streams {
		a, b, c := gen(7), gen(7), gen(8)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave two different streams", name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", name)
		}
	}
}

// singleClient boots w with the ledger installed, issues ops operations
// from client 0 alone and returns the per-layer report of that run.
func singleClient(t *testing.T, w workload, seed int64, ops int) map[string]float64 {
	t.Helper()
	l := &ledger{}
	in, err := w.boot(seed, untraced, l.install)
	if err != nil {
		t.Fatal(err)
	}
	defer in.close()
	before := readCounters(in.cluster())
	l.on.Store(true)
	rec := &recorder{}
	for i := 0; i < ops; i++ {
		switch in := in.(type) {
		case *crudInst:
			rec.add(in.do(0, in.gens[0].next()), 0)
		case *tpccInst:
			rec.add(in.do(0, in.gens[0].next()), 0)
		default:
			t.Fatalf("%s has no single-client mode", w.name)
		}
	}
	l.on.Store(false)
	after := readCounters(in.cluster())
	if rec.failed != 0 {
		t.Fatalf("%s: %d of %d ops failed: %v", w.name, rec.failed, rec.attempted, rec.errs)
	}
	m, _ := layerReport(in.cluster(), l, rec, before, after, 0)
	return m
}

// In a single-client run the count metrics repeat exactly.
func TestSingleClientCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("boots clusters")
	}
	for _, tc := range []struct {
		w   workload
		ops int
	}{{crudHA, 200}, {tenantTPCC, 60}} {
		a := singleClient(t, tc.w, 3, tc.ops)
		b := singleClient(t, tc.w, 3, tc.ops)
		for _, k := range []string{"citus.tasks_per_stmt", "citus.2pc_share", "wal.records_per_write"} {
			if a[k] != b[k] {
				t.Errorf("%s %s: %v then %v", tc.w.name, k, a[k], b[k])
			}
		}
		if a["wal.records_per_write"] == 0 || a["citus.tasks_per_stmt"] == 0 {
			t.Errorf("%s: counts not measured: %v", tc.w.name, a)
		}
	}
}

// tracedLayers runs w traced for a short window, as --trace 1 does.
func tracedLayers(t *testing.T, w workload, window time.Duration) map[string]float64 {
	t.Helper()
	in, l, err := bootTraced(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer in.close()
	rec, m, _ := runLedger(in, l, window, 1)
	if rec.failed != 0 {
		t.Fatalf("%s: %d of %d ops failed: %v", w.name, rec.failed, rec.attempted, rec.errs)
	}
	if errs := in.check(); len(errs) > 0 {
		t.Fatalf("%s: checks failed: %v", w.name, errs)
	}
	for _, nu := range perLayerNames {
		if _, ok := m[nu[0]]; !ok {
			t.Errorf("%s: per-layer metric %s not reported", w.name, nu[0])
		}
	}
	return m
}

// Each workload puts its work on the layers it was chosen for.
func TestLayerPlacement(t *testing.T) {
	if testing.Short() {
		t.Skip("boots clusters")
	}
	const window = 2 * time.Second
	type cond struct {
		metric string
		ok     func(float64) bool
		want   string
	}
	positive := func(v float64) bool { return v > 0 }
	for _, tc := range []struct {
		w     workload
		conds []cond
	}{
		{crudHA, []cond{
			{"bufpool.misses_per_op", positive, "> 0"},
			{"repl.sync_wait_us", positive, "> 0"},
			{"citus.tasks_per_stmt", func(v float64) bool { return v == 1 }, "= 1"},
		}},
		{tenantTPCC, []cond{
			{"citus.2pc_share", positive, "> 0"},
			{"repl.sync_wait_us", func(v float64) bool { return v == 0 }, "= 0"},
		}},
		{rtAnalytics, []cond{
			{"citus.conn_waits_per_stmt", positive, "> 0"},
			{"columnar.vec_rows_per_refresh", positive, "> 0"},
			{"bufpool.hit_ratio", func(v float64) bool { return v == 1 }, "= 1"},
		}},
	} {
		m := tracedLayers(t, tc.w, window)
		for _, c := range tc.conds {
			if !c.ok(m[c.metric]) {
				t.Errorf("%s: %s = %v, want %s", tc.w.name, c.metric, m[c.metric], c.want)
			}
		}
	}
}
