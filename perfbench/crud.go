package main

import (
	"fmt"
	"math/rand"
	"time"

	"citusgo/internal/cluster"
	"citusgo/internal/engine"
	"citusgo/internal/repl"
	"citusgo/internal/trace"
	"citusgo/internal/types"
)

// crud-ha: YCSB-style point reads and updates in MX mode, one sync standby
// per worker, with a buffer pool smaller than each worker's data. Each op
// is one fast-path router plan, one wire round trip, one worker execute,
// buffer misses, WAL and (for updates) a sync-standby wait.
const (
	crudRows      = 40000
	crudFields    = 10
	crudFieldLen  = 50
	crudClients   = 2
	crudCachePct  = 10 // per-node buffer pool, % of the table's total pages
	crudLoadBatch = 2000
	crudWarmOps   = 300        // per client: fills the buffer pools, plan caches and connection pools
	crudUnknown   = ^uint16(0) // field version after a failed update
)

var crudHA = workload{
	name: "crud-ha",
	setup: fmt.Sprintf("4+1 MX, %d shards, 1 sync standby/worker; %d rows x %d fields x %d B; "+
		"buffer pool %d%% of table pages per node; %d closed-loop clients on workers 1 and 2, disjoint key partitions, 50/50 read/update",
		shardCount, crudRows, crudFields, crudFieldLen, crudCachePct, crudClients),
	boot: bootCrud,
}

type crudInst struct {
	c     *cluster.Cluster
	seed  int64
	cache int // buffer pool pages per node
	pages int // table pages across the workers
	// copyLag is the most WAL records a sync standby trailed its primary
	// by once the load's COPYs were acknowledged
	copyLag int64
	// ver[key][field] is the version the owning client last wrote, or
	// crudUnknown after a failed update
	ver  [][crudFields]uint16
	sess []*engine.Session
	gens []*crudGen
}

// crudOp is one generated operation: a point read of key, or an update of
// one field of key.
type crudOp struct {
	read  bool
	key   int64
	field int
}

// crudGen is one client's operation stream. Client c owns the keys with
// key % crudClients == c, so read-your-writes holds per client without
// coordinating with the other.
type crudGen struct {
	rng    *rand.Rand
	client int
}

func newCrudGen(seed int64, client, stream int) *crudGen {
	return &crudGen{rng: rand.New(rand.NewSource(int64(splitmix(uint64(seed)*31 + uint64(client)*7 + uint64(stream))))), client: client}
}

func (g *crudGen) next() crudOp {
	key := int64(g.rng.Intn(crudRows/crudClients)*crudClients + g.client)
	if g.rng.Intn(2) == 0 {
		return crudOp{read: true, key: key}
	}
	return crudOp{key: key, field: g.rng.Intn(crudFields)}
}

func crudValue(seed, key int64, field int, ver uint16) string {
	return derivedString(crudFieldLen, uint64(seed), uint64(key), uint64(field), uint64(ver))
}

func crudColumns() []string {
	cols := []string{"ycsb_key"}
	for f := 0; f < crudFields; f++ {
		cols = append(cols, fmt.Sprintf("field%d", f))
	}
	return cols
}

func bootCrud(seed int64, tc trace.Config, prepare func(*cluster.Cluster)) (instance, error) {
	// The buffer pool is off while loading, so set-up pays no simulated
	// misses; it is sized from the loaded table and switched on before
	// warm-up.
	c, err := cluster.New(cluster.Config{
		Workers: workers, ShardCount: shardCount, NetworkRTT: cfgRTT,
		SyncMetadata: true, ReplicationFactor: 1, ReplicationMode: repl.ModeSync,
		Trace: tc,
	})
	if err != nil {
		return nil, err
	}
	if prepare != nil {
		prepare(c)
	}
	in := &crudInst{c: c, seed: seed, ver: make([][crudFields]uint16, crudRows)}
	if err := in.load(); err != nil {
		c.Close()
		return nil, err
	}
	var warmup []*crudGen
	for i := 0; i < crudClients; i++ {
		in.sess = append(in.sess, c.SessionOn(1+i%workers))
		in.gens = append(in.gens, newCrudGen(seed, i, 0))
		warmup = append(warmup, newCrudGen(seed, i, 1))
	}
	if err := warm("crud-ha", crudClients, crudWarmOps, func(cl int) outcome { return in.do(cl, warmup[cl].next()) }); err != nil {
		c.Close()
		return nil, err
	}
	return in, nil
}

func (in *crudInst) load() error {
	s := in.c.Session()
	ddl := "CREATE TABLE usertable (ycsb_key bigint PRIMARY KEY"
	for f := 0; f < crudFields; f++ {
		ddl += fmt.Sprintf(", field%d text", f)
	}
	if err := exec(s, ddl+")"); err != nil {
		return err
	}
	if err := exec(s, "SELECT create_distributed_table('usertable', 'ycsb_key')"); err != nil {
		return err
	}
	cols := crudColumns()
	batch := make([]types.Row, 0, crudLoadBatch)
	for k := int64(0); k < crudRows; k++ {
		row := types.Row{k}
		for f := 0; f < crudFields; f++ {
			row = append(row, crudValue(in.seed, k, f, 0))
		}
		batch = append(batch, row)
		if len(batch) == crudLoadBatch || k == crudRows-1 {
			if _, err := s.CopyFrom("usertable", cols, batch); err != nil {
				return fmt.Errorf("loading usertable: %w", err)
			}
			batch = batch[:0]
		}
	}
	// COPY returns without the sync-replication wait that autocommit
	// writes pay, so standbys may still be applying the load here; a
	// standby-routed read would then miss rows. Record the lag, then hold
	// set-up until every standby has applied its primary's log.
	for id := 1; id <= len(in.c.Engines); id++ {
		in.copyLag = max(in.copyLag, in.c.Repl.Lag(id))
	}
	for id := 1; id <= len(in.c.Engines); id++ {
		if err := in.c.Repl.Wait(id); err != nil {
			return fmt.Errorf("standbys catching up after load: %w", err)
		}
	}
	for _, eng := range in.c.Engines[1:] {
		in.pages += eng.TotalPages()
	}
	in.cache = in.pages * crudCachePct / 100
	for _, eng := range allEngines(in.c) {
		eng.Pool.SetIOLatency(cfgMiss, cfgIODepth)
		eng.Pool.SetCapacity(in.cache)
	}
	return nil
}

// do executes one operation on client cl's session and checks what a
// read returns against the client's own model of its partition.
func (in *crudInst) do(cl int, op crudOp) outcome {
	s := in.sess[cl]
	if op.read {
		res, err := s.Exec("SELECT * FROM usertable WHERE ycsb_key = $1", op.key)
		if err != nil {
			return outcome{class: classRead, op: true, err: err}
		}
		return outcome{class: classRead, op: true, err: in.verify(op.key, res)}
	}
	v := in.ver[op.key][op.field]
	next := v + 1
	if v == crudUnknown {
		next = 1 // the failed update left the field unknown; this write defines it again
	}
	val := crudValue(in.seed, op.key, op.field, next)
	res, err := s.Exec(fmt.Sprintf("UPDATE usertable SET field%d = $1 WHERE ycsb_key = $2", op.field), val, op.key)
	if err != nil {
		in.ver[op.key][op.field] = crudUnknown
		return outcome{class: classWrite, op: true, write: true, err: err}
	}
	in.ver[op.key][op.field] = next
	if res.Affected != 1 {
		return outcome{class: classWrite, op: true, write: true,
			err: checkError{fmt.Errorf("update of key %d affected %d rows", op.key, res.Affected)}}
	}
	return outcome{class: classWrite, op: true, write: true}
}

func (in *crudInst) verify(key int64, res *engine.Result) error {
	if len(res.Rows) != 1 || len(res.Rows[0]) != crudFields+1 {
		return checkError{fmt.Errorf("read of key %d returned %d rows", key, len(res.Rows))}
	}
	for f := 0; f < crudFields; f++ {
		v := in.ver[key][f]
		if v == crudUnknown {
			continue
		}
		if got, want := types.Format(res.Rows[0][f+1]), crudValue(in.seed, key, f, v); got != want {
			return checkError{fmt.Errorf("read-your-writes: key %d field%d reads %.12q…, want version %d", key, f, got, v)}
		}
	}
	return nil
}

func (in *crudInst) cluster() *cluster.Cluster { return in.c }

func (in *crudInst) drive(window time.Duration, rec *recorder) {
	closedLoop(crudClients, window, 0, rec, func(cl int) outcome { return in.do(cl, in.gens[cl].next()) })
}

func (in *crudInst) notes() []string {
	return []string{
		fmt.Sprintf("usertable: %d pages across the workers; buffer pool %d pages per node", in.pages, in.cache),
		fmt.Sprintf("load: COPY acknowledged with sync standbys up to %d WAL records behind (set-up waits for them)", in.copyLag),
	}
}

func (in *crudInst) check() []error {
	s := in.c.Session()
	res, err := s.Exec("SELECT count(*) FROM usertable")
	if err != nil {
		return []error{err}
	}
	if got := res.Rows[0][0].(int64); got != crudRows {
		return []error{fmt.Errorf("usertable holds %d rows, want %d", got, crudRows)}
	}
	return nil
}

func (in *crudInst) close() { in.c.Close() }
