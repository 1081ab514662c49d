package main

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"citusgo/internal/citus"
	"citusgo/internal/cluster"
	"citusgo/internal/engine"
	"citusgo/internal/trace"
	"citusgo/internal/types"
	"citusgo/internal/workload/gharchive"
)

// rt-analytics: ingest next to dashboards. One open-loop session COPYs
// event batches at a fixed mean rate while one closed-loop session refreshes a
// dashboard (the Figure 7b ILIKE query, then a grouped TopN rollup over a
// columnar table). The shared connection limit is below the shards per
// worker, so every fan-out queues for connections and pipelines. The fixed
// ingest rate makes the table grow the same way on every commit, so a
// faster ingest path cannot slow the dashboards by growing their data.
const (
	rtEvents      = 20000
	rtEventDays   = 7
	rtDashRows    = 48000
	rtDashTenants = 256
	rtDashBuckets = rtDashRows / 8
	rtSharedPool  = 4 // < shardCount/workers, so fan-outs wait for connections
	rtIngestBatch = 8
	rtIngestEvery = 40 * time.Millisecond
	rtLoadBatch   = 2000
	rtWarmRounds  = 3
	// rtThink is the dashboard's pause between refreshes. Back-to-back
	// refreshes keep both cores busy, and COPY latency then measures CPU
	// queueing more than ingest: its median lands on the knee between
	// batches that overlap a refresh and batches that do not, and moves by
	// 20% between runs.
	rtThink = 80 * time.Millisecond
)

const rtTopNSQL = `SELECT bucket, count(*), sum(val) FROM dash_events GROUP BY bucket ORDER BY bucket LIMIT 10`

var rtAnalytics = workload{
	name: "rt-analytics",
	setup: fmt.Sprintf("4+1, %d shards, max_shared_pool_size %d, all data in memory; github_events %d events with GIN trigram index, "+
		"columnar dash_events %d rows; 1 open-loop COPY session, %d rows per batch, independent arrivals every %v on average; "+
		"1 closed-loop dashboard session (ILIKE + TopN), %v between refreshes",
		shardCount, rtSharedPool, rtEvents, rtDashRows, rtIngestBatch, rtIngestEvery, rtThink),
	boot: bootAnalytics,
}

type rtInst struct {
	c      *cluster.Cluster
	gen    *gharchive.Generator
	dash   *engine.Session
	ingest *engine.Session
	// arrivals draws the ingest schedule: independent arrivals at a mean
	// gap of rtIngestEvery
	arrivals *rand.Rand

	mu     sync.Mutex // guards events: the ingest goroutine appends acked batches
	events []types.Row
	tables []types.Row // dash_events rows
	stats  openStats
	// per-query latencies of the refreshes, written by the dashboard
	// goroutine only
	ilike, topn []time.Duration
}

func bootAnalytics(seed int64, tc trace.Config, prepare func(*cluster.Cluster)) (instance, error) {
	c, err := cluster.New(cluster.Config{
		Workers: workers, ShardCount: shardCount, NetworkRTT: cfgRTT, Trace: tc,
		Citus: citus.Config{MaxSharedPoolSize: rtSharedPool},
	})
	if err != nil {
		return nil, err
	}
	if prepare != nil {
		prepare(c)
	}
	in := &rtInst{c: c, gen: gharchive.NewGenerator(seed, rtEventDays), dash: c.Session(), ingest: c.Session(),
		arrivals: rand.New(rand.NewSource(int64(splitmix(uint64(seed) + 991))))}
	if err := in.load(seed); err != nil {
		c.Close()
		return nil, err
	}
	// client 0 refreshes the dashboard, client 1 ingests a batch
	if err := warm("rt-analytics", 2, rtWarmRounds, func(cl int) outcome {
		if cl == 0 {
			return in.refresh()
		}
		return in.copyBatch()
	}); err != nil {
		c.Close()
		return nil, err
	}
	return in, nil
}

func (in *rtInst) load(seed int64) error {
	s := in.c.Session()
	if err := exec(s, gharchive.SchemaSQL); err != nil {
		return err
	}
	if err := exec(s, "SELECT create_distributed_table('github_events', 'event_id')"); err != nil {
		return err
	}
	for n := 0; n < rtEvents; n += rtLoadBatch {
		batch := in.gen.Batch(min(rtLoadBatch, rtEvents-n))
		if _, err := s.CopyFrom("github_events", []string{"event_id", "data"}, batch); err != nil {
			return fmt.Errorf("loading github_events: %w", err)
		}
		in.events = append(in.events, batch...)
	}
	if err := exec(s, gharchive.IndexSQL); err != nil {
		return err
	}
	if err := exec(s, "CREATE TABLE dash_events (tenant bigint, bucket bigint, val double precision) USING columnar"); err != nil {
		return err
	}
	if err := exec(s, "SELECT create_distributed_table('dash_events', 'tenant')"); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	in.tables = make([]types.Row, rtDashRows)
	for i := range in.tables {
		// tenants round-robin, so every seed puts the same rows on each shard
		in.tables[i] = types.Row{int64(i % rtDashTenants), int64(i % rtDashBuckets), float64(rng.Intn(10000)) / 10}
	}
	for off := 0; off < rtDashRows; off += rtLoadBatch {
		if _, err := s.CopyFrom("dash_events", nil, in.tables[off:min(off+rtLoadBatch, rtDashRows)]); err != nil {
			return fmt.Errorf("loading dash_events: %w", err)
		}
	}
	return nil
}

// refresh is one dashboard refresh: the ILIKE query, then the TopN rollup.
func (in *rtInst) refresh() outcome {
	o := outcome{class: classRead, op: true}
	start := time.Now()
	if _, err := in.dash.Exec(gharchive.DashboardSQL); err != nil {
		o.err = fmt.Errorf("dashboard ILIKE: %w", err)
		return o
	}
	mid := time.Now()
	if _, err := in.dash.Exec(rtTopNSQL); err != nil {
		o.err = fmt.Errorf("dashboard TopN: %w", err)
		return o
	}
	in.ilike = append(in.ilike, mid.Sub(start))
	in.topn = append(in.topn, time.Since(mid))
	return o
}

// copyBatch ingests the generator's next batch; only acknowledged batches
// join the rows the post-run checks expect.
func (in *rtInst) copyBatch() outcome {
	batch := in.gen.Batch(rtIngestBatch)
	o := outcome{class: classWrite, write: true}
	if _, err := in.ingest.CopyFrom("github_events", []string{"event_id", "data"}, batch); err != nil {
		o.err = fmt.Errorf("COPY batch: %w", err)
		return o
	}
	in.mu.Lock()
	in.events = append(in.events, batch...)
	in.mu.Unlock()
	return o
}

func (in *rtInst) cluster() *cluster.Cluster { return in.c }

func (in *rtInst) drive(window time.Duration, rec *recorder) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		due := poissonSchedule(in.arrivals, rtIngestEvery, window)
		in.stats = openLoop(due, window, rec, func(int) outcome { return in.copyBatch() })
	}()
	closedLoop(1, window, rtThink, rec, func(int) outcome { return in.refresh() })
	wg.Wait()
}

func (in *rtInst) notes() []string {
	st := in.stats
	late := sortedCopy(st.lateness)
	var max time.Duration
	if len(late) > 0 {
		max = late[len(late)-1]
	}
	return []string{
		fmt.Sprintf("ingest generator: %d of %d due batches issued, backlog %d, lateness p50 %.3fms max %.3fms, valid %v",
			st.issued, st.scheduled, st.backlog, ms(percentile(late, 50)), ms(max), st.valid()),
		fmt.Sprintf("refresh p50: ILIKE %.2fms, TopN %.2fms", ms(p50(in.ilike)), ms(p50(in.topn))),
	}
}

// check compares, after ingest has stopped, the cluster's row count and
// dashboard answers with a single-node engine holding the same rows.
func (in *rtInst) check() []error {
	var errs []error
	if !in.stats.valid() {
		errs = append(errs, fmt.Errorf("ingest backlog grew: %d of %d batches never started", in.stats.backlog, in.stats.scheduled))
	}
	s := in.c.Session()
	res, err := s.Exec("SELECT count(*) FROM github_events")
	if err != nil {
		return append(errs, err)
	}
	in.mu.Lock()
	events := in.events
	in.mu.Unlock()
	if got := res.Rows[0][0].(int64); got != int64(len(events)) {
		errs = append(errs, fmt.Errorf("github_events holds %d rows, want %d preloaded + acked", got, len(events)))
	}
	oracle := engine.New(engine.Config{Name: "oracle", DeadlockInterval: -1})
	defer oracle.Close()
	local := oracle.NewSession()
	if err := exec(local, gharchive.SchemaSQL); err != nil {
		return append(errs, err)
	}
	if err := exec(local, "CREATE TABLE dash_events (tenant bigint, bucket bigint, val double precision)"); err != nil {
		return append(errs, err)
	}
	if _, err := local.CopyFrom("github_events", []string{"event_id", "data"}, events); err != nil {
		return append(errs, err)
	}
	if _, err := local.CopyFrom("dash_events", nil, in.tables); err != nil {
		return append(errs, err)
	}
	for _, dq := range []struct{ name, sql string }{{"ILIKE", gharchive.DashboardSQL}, {"TopN", rtTopNSQL}} {
		q := dq.sql
		got, err := s.Exec(q)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		want, err := local.Exec(q)
		if err != nil {
			errs = append(errs, fmt.Errorf("oracle: %w", err))
			continue
		}
		if msg := diffRows(got.Rows, want.Rows); msg != "" {
			errs = append(errs, fmt.Errorf("%s: cluster and single-node oracle differ: %s", dq.name, msg))
		}
	}
	return errs
}

func (in *rtInst) close() { in.c.Close() }

// diffRows compares two ordered results, floats to a relative 1e-9 (sums
// over shards add in another order than one node does).
func diffRows(got, want []types.Row) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d rows, oracle %d", len(got), len(want))
	}
	for i := range got {
		if len(got[i]) != len(want[i]) {
			return fmt.Sprintf("row %d has %d columns, oracle %d", i, len(got[i]), len(want[i]))
		}
		for j := range got[i] {
			g, gok := toFloat(got[i][j])
			w, wok := toFloat(want[i][j])
			if gok && wok {
				if math.Abs(g-w) > 1e-9*math.Max(1, math.Abs(w)) {
					return fmt.Sprintf("row %d col %d: %v, oracle %v", i, j, g, w)
				}
				continue
			}
			if types.Format(got[i][j]) != types.Format(want[i][j]) {
				return fmt.Sprintf("row %d col %d: %s, oracle %s", i, j, types.Format(got[i][j]), types.Format(want[i][j]))
			}
		}
	}
	return ""
}
