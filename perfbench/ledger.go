package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"citusgo/internal/bufpool"
	"citusgo/internal/cluster"
	"citusgo/internal/engine"
	"citusgo/internal/obs"
	"citusgo/internal/sql"
	"citusgo/internal/trace"
	"citusgo/internal/types"
	"citusgo/internal/wire"
)

// The traced run measures layers from outside the program: timers around
// the engine's and the Citus layer's public hook fields, the spans the
// program already records, deltas of the metrics registry and the buffer
// pools, and direct probes of the simulated network and disk.

// hookEvent is one timed call through a wrapped hook.
type hookEvent struct {
	start time.Time
	dur   time.Duration
}

// ledger collects hook timings while on is set (the measured window).
type ledger struct {
	on atomic.Bool

	mu     sync.Mutex
	plans  []hookEvent // PlannerHook calls that returned a distributed plan
	execs  []hookEvent // Execute of those plans
	copies []hookEvent // CopyHook calls the Citus layer handled
	utils  []hookEvent // UtilityHook calls
	syncs  []hookEvent // SyncWaiter calls
}

func (l *ledger) record(dst *[]hookEvent, start time.Time) {
	if !l.on.Load() {
		return
	}
	ev := hookEvent{start: start, dur: time.Since(start)}
	l.mu.Lock()
	*dst = append(*dst, ev)
	l.mu.Unlock()
}

// install wraps every node's hooks with timers. It runs right after the
// cluster boots, before any traffic.
func (l *ledger) install(c *cluster.Cluster) {
	for _, eng := range c.Engines {
		if h := eng.PlannerHook; h != nil {
			eng.PlannerHook = func(s *engine.Session, st sql.Statement, params []types.Datum) (engine.Plan, error) {
				start := time.Now()
				plan, err := h(s, st, params)
				if plan != nil && l.on.Load() {
					l.record(&l.plans, start)
					plan = timedPlan{Plan: plan, l: l}
				}
				return plan, err
			}
		}
		if h := eng.CopyHook; h != nil {
			eng.CopyHook = func(s *engine.Session, table string, cols []string, rows []types.Row) (bool, int, error) {
				start := time.Now()
				handled, n, err := h(s, table, cols, rows)
				if handled {
					l.record(&l.copies, start)
				}
				return handled, n, err
			}
		}
		if h := eng.UtilityHook; h != nil {
			eng.UtilityHook = func(s *engine.Session, st sql.Statement) (bool, *engine.Result, error) {
				start := time.Now()
				handled, res, err := h(s, st)
				l.record(&l.utils, start)
				return handled, res, err
			}
		}
	}
	for _, n := range c.Nodes {
		if w := n.SyncWaiter; w != nil {
			n.SyncWaiter = func(nodeID int) error {
				start := time.Now()
				err := w(nodeID)
				l.record(&l.syncs, start)
				return err
			}
		}
	}
}

// timedPlan times the execution of a distributed plan: the Citus executor
// from task dispatch to merged result.
type timedPlan struct {
	engine.Plan
	l *ledger
}

func (p timedPlan) Execute(s *engine.Session, params []types.Datum) (*engine.Result, error) {
	start := time.Now()
	res, err := p.Plan.Execute(s, params)
	p.l.record(&p.l.execs, start)
	return res, err
}

// counters is a point-in-time reading of every process-wide quantity the
// ledger diffs.
type counters struct {
	at       time.Time
	obs      obs.Snapshot
	hits     int64
	misses   int64
	alloc    uint64
	gcCPU    float64
	totalCPU float64
}

func readCounters(c *cluster.Cluster) counters {
	k := counters{at: time.Now(), obs: obs.Default().Snapshot()}
	for _, eng := range allEngines(c) {
		h, m := eng.Pool.Stats()
		k.hits += h
		k.misses += m
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	k.alloc = ms.TotalAlloc
	samples := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(samples)
	if samples[0].Value.Kind() == metrics.KindFloat64 {
		k.gcCPU = samples[0].Value.Float64()
		k.totalCPU = samples[1].Value.Float64()
	}
	return k
}

// spanSet indexes the spans of the root statements that the tracers' rings
// hold completely.
type spanSet struct {
	roots    []trace.Span
	byID     map[uint64]trace.Span
	children map[uint64][]trace.Span
	// from is where complete coverage starts: the window start, or later
	// when a ring wrapped and lost the oldest spans.
	from time.Time
}

func end(s trace.Span) time.Time { return s.Start.Add(s.Duration) }

func collectSpans(c *cluster.Cluster, from, to time.Time) spanSet {
	var all []trace.Span
	ss := spanSet{from: from, byID: map[uint64]trace.Span{}, children: map[uint64][]trace.Span{}}
	for _, eng := range allEngines(c) {
		spans := eng.Tracer.Dump()
		if len(spans) > 0 && eng.Tracer.SpanCount() == eng.Tracer.RingCap() {
			// A full ring dropped spans in the order they finished, so it
			// holds every span that started after its oldest finish.
			oldest := end(spans[0])
			for _, s := range spans[1:] {
				if end(s).Before(oldest) {
					oldest = end(s)
				}
			}
			if oldest.After(ss.from) {
				ss.from = oldest
			}
		}
		all = append(all, spans...)
	}
	traces := map[uint64]bool{}
	for _, s := range all {
		if s.ParentID == 0 && s.Kind == "statement" && !s.Start.Before(ss.from) && !end(s).After(to) {
			ss.roots = append(ss.roots, s)
			traces[s.TraceID] = true
		}
	}
	for _, s := range all {
		if traces[s.TraceID] {
			ss.byID[s.SpanID] = s
			if s.ParentID != 0 {
				ss.children[s.ParentID] = append(ss.children[s.ParentID], s)
			}
		}
	}
	return ss
}

// self is a span's duration minus the part of its interval that its
// children cover.
func (ss spanSet) self(s trace.Span) time.Duration {
	kids := ss.children[s.SpanID]
	if len(kids) == 0 {
		return s.Duration
	}
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := k.Start, end(k)
		if a.Before(s.Start) {
			a = s.Start
		}
		if b.After(end(s)) {
			b = end(s)
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var covered time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			covered += cur.b.Sub(cur.a)
			cur = v
		}
	}
	if len(ivs) > 0 {
		covered += cur.b.Sub(cur.a)
	}
	return s.Duration - covered
}

// container reports whether a span only groups the layers below it: the
// root statement, and statements a procedure runs on the same node. Their
// self time belongs to no named layer.
func (ss spanSet) container(s trace.Span) bool {
	if s.Kind == "statement" {
		return true
	}
	if s.Kind != "execute" {
		return false
	}
	parent, ok := ss.byID[s.ParentID]
	return ok && ss.container(parent)
}

// unclaimed is the time under a container that no child span claims.
func (ss spanSet) unclaimed(s trace.Span) time.Duration {
	d := ss.self(s)
	for _, k := range ss.children[s.SpanID] {
		if ss.container(k) {
			d += ss.unclaimed(k)
		}
	}
	return d
}

// spans returns every indexed span of one kind.
func (ss spanSet) spans(kind string) []trace.Span {
	var out []trace.Span
	for _, s := range ss.byID {
		if s.Kind == kind {
			out = append(out, s)
		}
	}
	return out
}

func p50(d []time.Duration) time.Duration { return percentile(sortedCopy(d), 50) }

func durs(evs []hookEvent, from, to time.Time) (out []time.Duration, sum time.Duration) {
	for _, e := range evs {
		if !e.start.Before(from) && !e.start.After(to) {
			out = append(out, e.dur)
			sum += e.dur
		}
	}
	return out, sum
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// probeRTT times Conn.Ping against a worker over a connection with the
// configured RTT: the round trip the simulator actually charges.
func probeRTT(eng *engine.Engine, n int) time.Duration {
	conn := wire.DialLocal(eng, cfgRTT)
	defer conn.Close()
	var d []time.Duration
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := conn.Ping(); err != nil {
			return 0
		}
		d = append(d, time.Since(start))
	}
	return p50(d)
}

// probeMiss times Pool.Access on distinct pages of a one-page pool with the
// configured miss latency: the cost the simulator actually charges a miss.
func probeMiss(n int) time.Duration {
	p := bufpool.New(bufpool.Config{CapacityPages: 1, IOLatency: cfgMiss, IOConcurrency: cfgIODepth})
	var d []time.Duration
	for i := 0; i < n; i++ {
		start := time.Now()
		p.Access(bufpool.PageID{Table: 1, Page: int32(i)})
		d = append(d, time.Since(start))
	}
	return p50(d)
}

// layerReport turns one traced window into the per-layer metrics.
func layerReport(c *cluster.Cluster, l *ledger, rec *recorder, before, after counters, baseOpsPerS float64) (map[string]float64, []string) {
	d := after.obs.Delta(before.obs)
	sum := func(name string) float64 { return float64(d.Sum(name)) }
	get := func(key string) float64 { return float64(d.Get(key)) }
	window := after.at.Sub(before.at)
	ops := float64(rec.ops)
	opsPerS := ops / window.Seconds()

	ss := collectSpans(c, before.at, after.at)
	l.mu.Lock()
	plans, _ := durs(l.plans, before.at, after.at)
	execs, _ := durs(l.execs, before.at, after.at)
	copies, _ := durs(l.copies, before.at, after.at)
	utils, _ := durs(l.utils, before.at, after.at)
	syncs, syncSum := durs(l.syncs, before.at, after.at)
	_, planIn := durs(l.plans, ss.from, after.at)
	_, syncIn := durs(l.syncs, ss.from, after.at)
	l.mu.Unlock()
	stmts := float64(len(plans))

	var rootSum, unclaimed time.Duration
	for _, r := range ss.roots {
		rootSum += r.Duration
		unclaimed += ss.unclaimed(r)
	}
	// Hook time spent inside container spans is claimed by its layer:
	// distributed planning and the sync-standby wait run on the client's
	// node between child spans.
	residual := unclaimed - planIn - syncIn
	if residual < 0 {
		residual = 0
	}

	var taskSelf, workerExec []time.Duration
	for _, t := range ss.spans("task") {
		taskSelf = append(taskSelf, ss.self(t))
	}
	for _, e := range ss.spans("execute") {
		if p, ok := ss.byID[e.ParentID]; ok && p.Kind == "task" {
			workerExec = append(workerExec, ss.self(e))
		}
	}
	spanDurs := func(kind string) []time.Duration {
		var out []time.Duration
		for _, s := range ss.spans(kind) {
			out = append(out, s.Duration)
		}
		return out
	}
	twoPC := map[uint64]time.Duration{}
	for _, kind := range []string{"2pc_prepare", "2pc_resolve"} {
		for _, s := range ss.spans(kind) {
			twoPC[s.TraceID] += s.Duration
		}
	}
	var twoPCDurs []time.Duration
	for _, v := range twoPC {
		twoPCDurs = append(twoPCDurs, v)
	}

	hits, misses := float64(after.hits-before.hits), float64(after.misses-before.misses)
	hitRatio := 1.0 // a pool that is off never misses
	if hits+misses > 0 {
		hitRatio = hits / (hits + misses)
	}
	var syncMean time.Duration
	if len(syncs) > 0 {
		syncMean = syncSum / time.Duration(len(syncs))
	}
	gets := sum("pool_gets_total")
	rtt := probeRTT(c.Engines[1], 200)
	miss := probeMiss(200)

	m := map[string]float64{
		"citus.plan_us":                    us(p50(plans)),
		"citus.plancache_hit_ratio":        ratio(sum("citus_plancache_hits"), sum("citus_plancache_hits")+sum("citus_plancache_misses")),
		"citus.exec_us":                    us(p50(execs)),
		"citus.tasks_per_stmt":             ratio(sum("executor_tasks_total"), stmts),
		"citus.conn_waits_per_stmt":        ratio(sum("executor_conn_waits_total"), stmts),
		"citus.slow_start_rounds_per_stmt": ratio(sum("executor_slow_start_rounds_total"), stmts),
		"citus.merge_rows_per_refresh":     ratio(sum("citus_merge_rows_total"), ops),
		"citus.copy_ms":                    ms(p50(copies)),
		"citus.utility_us":                 us(p50(utils)),
		"citus.2pc_share":                  ratio(sum("dtxn_2pc_commits_total"), sum("dtxn_2pc_commits_total")+sum("dtxn_single_node_commits_total")),
		"citus.2pc_commit_us":              us(p50(twoPCDurs)),
		"citus.deadlock_victims":           sum("deadlock_victims_total"),
		"citus.task_retries":               sum("executor_task_retries_total"),
		"citus.residual_share":             ratio(float64(residual), float64(rootSum)),
		"pool.reuse_ratio":                 ratio(gets-sum("pool_dials_total"), gets),
		"pool.limit_waits_per_stmt":        ratio(sum("pool_limit_waits_total"), stmts),
		"wire.rtt_us":                      us(rtt),
		"wire.task_self_us":                us(p50(taskSelf)),
		"wire.pipeline_depth":              ratio(get("wire_pipeline_depth_sum"), get("wire_pipeline_depth_count")),
		"engine.parse_us":                  us(p50(spanDurs("parse"))),
		"engine.plan_us":                   us(p50(spanDurs("plan"))),
		"engine.execute_us":                us(p50(workerExec)),
		"engine.stmts_per_op":              ratio(sum("engine_statements_total"), ops),
		"engine.plancache_hit_ratio":       ratio(sum("engine_plancache_hits"), sum("engine_plancache_hits")+sum("engine_plancache_misses")),
		"lock.wait_us_per_op":              ratio(get(`trace_span_duration_ns_sum{kind="lock_wait"}`)/1e3, ops),
		"bufpool.hit_ratio":                hitRatio,
		"bufpool.misses_per_op":            ratio(misses, ops),
		"bufpool.miss_us":                  us(miss),
		"wal.records_per_write":            ratio(sum("wal_records_total"), float64(rec.writes)),
		"wal.fsync_us":                     us(p50(spanDurs("wal_fsync"))),
		"repl.sync_wait_us":                us(syncMean),
		"repl.standby_read_share":          ratio(get(`executor_routed_reads_total{placement="standby"}`), sum("executor_routed_reads_total")),
		"repl.sync_timeouts":               sum("repl_sync_timeouts_total"),
		"columnar.stripes_skipped_ratio":   ratio(sum("columnar_vec_stripes_skipped_total"), sum("columnar_vec_stripes_skipped_total")+sum("columnar_vec_batches_total")),
		"columnar.vec_rows_per_refresh":    ratio(sum("columnar_vec_rows_total"), ops),
		"vec.topn_pruned_rows_per_refresh": ratio(sum("vec_topn_pruned_rows_total"), ops),
		"trace.overhead_pct":               100 * ratio(baseOpsPerS-opsPerS, baseOpsPerS),
		"runtime.alloc_kb_per_op":          ratio(float64(after.alloc-before.alloc)/1024, ops),
		"runtime.gc_cpu_fraction":          ratio(after.gcCPU-before.gcCPU, after.totalCPU-before.totalCPU),
	}
	obsSync := time.Duration(ratio(get("repl_sync_wait_ns_sum"), get("repl_sync_wait_ns_count")))
	notes := []string{
		fmt.Sprintf("calibration: wire.rtt_us %.0f vs wire.rtt_cfg_us %.0f; bufpool.miss_us %.0f vs bufpool.miss_cfg_us %.0f",
			us(rtt), us(cfgRTT), us(miss), us(cfgMiss)),
		fmt.Sprintf("ledger: %d root statements fully traced from %.2fs into the %.2fs window; %.1f%% of their time is claimed by no named layer",
			len(ss.roots), ss.from.Sub(before.at).Seconds(), window.Seconds(), 100*m["citus.residual_share"]),
		fmt.Sprintf("repl: wrapped SyncWaiter mean %.0fus over %d waits; repl_sync_wait_ns mean %.0fus over %d (differ by %.1f%%)",
			us(syncMean), len(syncs), us(obsSync), int64(get("repl_sync_wait_ns_count")), 100*ratio(math.Abs(float64(syncMean-obsSync)), float64(obsSync))),
		fmt.Sprintf("traced %.1f ops/s vs untraced %.1f ops/s", opsPerS, baseOpsPerS),
	}
	return m, notes
}

// perLayerNames lists the per-layer metrics with their units, in report
// order. The configured RTT and miss cost are constants, not measurements:
// they appear in the calibration line next to their probes instead.
var perLayerNames = [][2]string{
	{"citus.plan_us", "us"}, {"citus.plancache_hit_ratio", "ratio"}, {"citus.exec_us", "us"},
	{"citus.tasks_per_stmt", "count"}, {"citus.conn_waits_per_stmt", "count"},
	{"citus.slow_start_rounds_per_stmt", "count"}, {"citus.merge_rows_per_refresh", "count"},
	{"citus.copy_ms", "ms"}, {"citus.utility_us", "us"}, {"citus.2pc_share", "ratio"}, {"citus.2pc_commit_us", "us"},
	{"citus.deadlock_victims", "count"}, {"citus.task_retries", "count"}, {"citus.residual_share", "ratio"},
	{"pool.reuse_ratio", "ratio"}, {"pool.limit_waits_per_stmt", "count"},
	{"wire.rtt_us", "us"}, {"wire.task_self_us", "us"}, {"wire.pipeline_depth", "count"},
	{"engine.parse_us", "us"}, {"engine.plan_us", "us"}, {"engine.execute_us", "us"},
	{"engine.stmts_per_op", "count"}, {"engine.plancache_hit_ratio", "ratio"},
	{"lock.wait_us_per_op", "us"},
	{"bufpool.hit_ratio", "ratio"}, {"bufpool.misses_per_op", "count"}, {"bufpool.miss_us", "us"},
	{"wal.records_per_write", "count"}, {"wal.fsync_us", "us"},
	{"repl.sync_wait_us", "us"}, {"repl.standby_read_share", "ratio"}, {"repl.sync_timeouts", "count"},
	{"columnar.stripes_skipped_ratio", "ratio"}, {"columnar.vec_rows_per_refresh", "count"},
	{"vec.topn_pruned_rows_per_refresh", "count"},
	{"trace.overhead_pct", "%"},
	{"runtime.alloc_kb_per_op", "KiB"}, {"runtime.gc_cpu_fraction", "ratio"},
}
