package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"citusgo/internal/cluster"
	"citusgo/internal/engine"
	"citusgo/internal/trace"
	"citusgo/internal/types"
	"citusgo/internal/wire"
	"citusgo/internal/workload/tpcc"
)

// tenant-tpcc: multi-statement distributed transactions. Every transaction
// is BEGIN; CALL <proc>(...); COMMIT on the coordinator, so a transaction
// that touched two warehouses commits through 2PC and the rest commit on
// one node. The buffer pool is off and there are no standbys: this
// workload pays no misses and no replication wait.
//
// A bare autocommit CALL is not used: it is not atomic (a failing
// two-shard CALL leaves both updates committed) and it takes neither 2PC
// nor the single-node commit path, so benchmarking it would make its fix
// look like a regression.
const (
	tpccWarehouses = 8
	tpccDistricts  = 4
	tpccCustomers  = 40
	tpccItems      = 500
	tpccClients    = 2
	tpccWarmTxns   = 50 // per client
)

var tpccCfg = tpcc.Config{
	Warehouses: tpccWarehouses, Districts: tpccDistricts,
	CustomersPerDistrict: tpccCustomers, Items: tpccItems,
	RemotePaymentPct: 0.15, RemoteItemPct: 0.01,
}

var tenantTPCC = workload{
	name: "tenant-tpcc",
	setup: fmt.Sprintf("4+1, %d shards, no standby, buffer pool off; TPC-C %d warehouses x %d districts x %d customers, %d items (reference table); "+
		"%d closed-loop clients on the coordinator, BEGIN; CALL; COMMIT in the TPC-C mix, 15%% remote payments, 1%% remote order lines",
		shardCount, tpccWarehouses, tpccDistricts, tpccCustomers, tpccItems, tpccClients),
	boot: bootTPCC,
}

// tpccDistributed mirrors the schema's distribution: every table but item
// is co-located on the warehouse id.
var tpccDistributed = [][2]string{
	{"warehouse", "w_id"}, {"district", "d_w_id"}, {"customer", "c_w_id"},
	{"history", "h_w_id"}, {"orders", "o_w_id"}, {"new_order", "no_w_id"},
	{"order_line", "ol_w_id"}, {"stock", "s_w_id"},
}

type tpccInst struct {
	c    *cluster.Cluster
	sess []*engine.Session
	gens []*tpccGen
}

// tpccOp is one generated transaction: the CALL statement and its class.
type tpccOp struct {
	call  string
	class class
	write bool
}

// tpccGen is one client's transaction stream. Each client has home
// warehouses of its own (w % tpccClients == client) for New-Order, as a
// TPC-C terminal does; the other transactions pick any warehouse, so the
// clients still contend on warehouse and district rows. Two New-Orders on
// one warehouse lock stock rows in random item order, and with shared
// home warehouses they deadlock about once per 3000 transactions.
type tpccGen struct {
	rng    *rand.Rand
	client int
}

func newTPCCGen(seed int64, client, stream int) *tpccGen {
	return &tpccGen{rng: rand.New(rand.NewSource(int64(splitmix(uint64(seed)*131 + uint64(client)*17 + uint64(stream))))), client: client}
}

// next draws the TPC-C mix: 45% New-Order, 43% Payment, 4% each of
// Order-Status, Delivery and Stock-Level.
func (g *tpccGen) next() tpccOp {
	r := g.rng
	roll := r.Float64()
	w := int64(r.Intn(tpccWarehouses) + 1)
	d := int64(r.Intn(tpccDistricts) + 1)
	c := int64(r.Intn(tpccCustomers) + 1)
	switch {
	case roll < 0.45:
		w = int64(r.Intn(tpccWarehouses/tpccClients)*tpccClients + g.client + 1)
		olCnt := int64(5 + r.Intn(11))
		remoteW := int64(0)
		if r.Float64() < tpccCfg.RemoteItemPct*float64(olCnt) {
			remoteW = otherWarehouse(r, w)
		}
		return tpccOp{class: classWrite, write: true,
			call: fmt.Sprintf("CALL new_order(%d, %d, %d, %d, %d, %d)", w, d, c, olCnt, r.Int63(), remoteW)}
	case roll < 0.88:
		cw, cd := w, d
		if r.Float64() < tpccCfg.RemotePaymentPct {
			cw = otherWarehouse(r, w)
			cd = int64(r.Intn(tpccDistricts) + 1)
		}
		return tpccOp{class: classOther, write: true,
			call: fmt.Sprintf("CALL payment(%d, %d, %d, %d, %d, %.2f)", w, d, cw, cd, c, 1+float64(r.Intn(499900))/100)}
	case roll < 0.92:
		return tpccOp{class: classRead, call: fmt.Sprintf("CALL order_status(%d, %d, %d)", w, d, c)}
	case roll < 0.96:
		return tpccOp{class: classOther, write: true, call: fmt.Sprintf("CALL delivery(%d, %d)", w, d)}
	default:
		return tpccOp{class: classRead, call: fmt.Sprintf("CALL stock_level(%d, %d, %d)", w, d, 70+r.Intn(20))}
	}
}

func otherWarehouse(r *rand.Rand, w int64) int64 {
	o := int64(r.Intn(tpccWarehouses-1) + 1)
	if o >= w {
		o++
	}
	return o
}

func bootTPCC(seed int64, tc trace.Config, prepare func(*cluster.Cluster)) (instance, error) {
	c, err := cluster.New(cluster.Config{
		Workers: workers, ShardCount: shardCount, NetworkRTT: cfgRTT, Trace: tc,
	})
	if err != nil {
		return nil, err
	}
	if prepare != nil {
		prepare(c)
	}
	in := &tpccInst{c: c}
	if err := tpccLoad(c.Session(), seed); err != nil {
		c.Close()
		return nil, err
	}
	tpcc.RegisterProcedures(c.Engines[0], tpccCfg)
	var warmup []*tpccGen
	for i := 0; i < tpccClients; i++ {
		in.sess = append(in.sess, c.Session())
		in.gens = append(in.gens, newTPCCGen(seed, i, 0))
		warmup = append(warmup, newTPCCGen(seed, i, 1))
	}
	if err := warm("tenant-tpcc", tpccClients, tpccWarmTxns, func(cl int) outcome { return in.do(cl, warmup[cl].next()) }); err != nil {
		c.Close()
		return nil, err
	}
	return in, nil
}

// tpccLoad creates the schema and loads data drawn from the seed. Every
// w_ytd and d_ytd starts at 0 and every d_next_o_id at 1, so the
// consistency checks hold from the start.
func tpccLoad(s *engine.Session, seed int64) error {
	for _, ddl := range tpcc.DDL {
		if err := exec(s, ddl); err != nil {
			return err
		}
	}
	if err := exec(s, "SELECT create_reference_table('item')"); err != nil {
		return err
	}
	for i, td := range tpccDistributed {
		q := fmt.Sprintf("SELECT create_distributed_table('%s', '%s'", td[0], td[1])
		if i > 0 {
			q += ", colocate_with := 'warehouse'"
		}
		if err := exec(s, q+")"); err != nil {
			return err
		}
	}
	rng := rand.New(rand.NewSource(seed))
	items := make([]types.Row, tpccItems)
	for i := range items {
		items[i] = types.Row{int64(i + 1), fmt.Sprintf("item-%d", i+1), 1 + float64(rng.Intn(9900))/100}
	}
	tables := map[string][]types.Row{"item": items}
	for w := int64(1); w <= tpccWarehouses; w++ {
		tables["warehouse"] = append(tables["warehouse"], types.Row{w, fmt.Sprintf("wh-%d", w), float64(rng.Intn(2000)) / 10000, 0.0})
		for d := int64(1); d <= tpccDistricts; d++ {
			tables["district"] = append(tables["district"], types.Row{w, d, float64(rng.Intn(2000)) / 10000, 0.0, int64(1)})
			for c := int64(1); c <= tpccCustomers; c++ {
				tables["customer"] = append(tables["customer"], types.Row{
					w, d, c, fmt.Sprintf("LAST%d", rng.Intn(10)), -10.0, 10.0, int64(1), int64(0)})
			}
		}
		for i := int64(1); i <= tpccItems; i++ {
			tables["stock"] = append(tables["stock"], types.Row{w, i, int64(50 + rng.Intn(50)), int64(0), int64(0), int64(0)})
		}
	}
	for _, t := range []string{"item", "warehouse", "district", "customer", "stock"} {
		if _, err := s.CopyFrom(t, nil, tables[t]); err != nil {
			return fmt.Errorf("loading %s: %w", t, err)
		}
	}
	return nil
}

func (in *tpccInst) do(cl int, op tpccOp) outcome {
	s := in.sess[cl]
	o := outcome{class: op.class, op: true, write: op.write}
	if _, err := s.Exec("BEGIN"); err != nil {
		o.err = err
		return o
	}
	if _, err := s.Exec(op.call); err != nil {
		_, _ = s.Exec("ROLLBACK") // the session is reusable after ROLLBACK whatever CALL left behind
		o.err = fmt.Errorf("%s: %w", op.call, err)
		return o
	}
	if _, err := s.Exec("COMMIT"); err != nil {
		o.err = fmt.Errorf("COMMIT after %s: %w", op.call, err)
	}
	return o
}

func (in *tpccInst) cluster() *cluster.Cluster { return in.c }

func (in *tpccInst) drive(window time.Duration, rec *recorder) {
	closedLoop(tpccClients, window, 0, rec, func(cl int) outcome { return in.do(cl, in.gens[cl].next()) })
}

func (in *tpccInst) notes() []string { return nil }

// check verifies, after the run, that money and order ids add up and that
// no worker holds a prepared transaction.
func (in *tpccInst) check() []error {
	s := in.c.Session()
	var errs []error
	wYTD, err := keyedFloats(s, "SELECT w_id, w_ytd FROM warehouse")
	if err != nil {
		return []error{err}
	}
	dYTD, err := keyedFloats(s, "SELECT d_w_id, sum(d_ytd) FROM district GROUP BY d_w_id")
	if err != nil {
		return []error{err}
	}
	for w := 1; w <= tpccWarehouses; w++ {
		k := fmt.Sprint(w)
		if a, b := wYTD[k], dYTD[k]; math.Abs(a-b) > 1e-6*math.Max(1, math.Abs(a)) {
			errs = append(errs, fmt.Errorf("warehouse %d: w_ytd %.2f != sum(d_ytd) %.2f", w, a, b))
		}
	}
	next, err := keyedFloats(s, "SELECT d_w_id, d_id, d_next_o_id FROM district")
	if err != nil {
		return append(errs, err)
	}
	maxO, err := keyedFloats(s, "SELECT o_w_id, o_d_id, max(o_id) FROM orders GROUP BY o_w_id, o_d_id")
	if err != nil {
		return append(errs, err)
	}
	if len(next) != tpccWarehouses*tpccDistricts {
		errs = append(errs, fmt.Errorf("district holds %d rows, want %d", len(next), tpccWarehouses*tpccDistricts))
	}
	for k, n := range next {
		if n-1 != maxO[k] {
			errs = append(errs, fmt.Errorf("district %s: d_next_o_id-1 = %v, max(o_id) = %v", k, n-1, maxO[k]))
		}
	}
	for _, eng := range in.c.Engines[1:] {
		conn := wire.DialLocal(eng, 0)
		prepared, err := conn.ListPrepared()
		_ = conn.Close()
		if err != nil {
			errs = append(errs, fmt.Errorf("listing prepared transactions on %s: %w", eng.Name, err))
		} else if len(prepared) > 0 {
			errs = append(errs, fmt.Errorf("%s holds %d prepared transactions after the run", eng.Name, len(prepared)))
		}
	}
	return errs
}

func (in *tpccInst) close() { in.c.Close() }

// keyedFloats runs a query whose last column is numeric and returns it
// keyed by the other columns, joined with "/".
func keyedFloats(s *engine.Session, q string) (map[string]float64, error) {
	res, err := s.Exec(q)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", q, err)
	}
	out := make(map[string]float64, len(res.Rows))
	for _, row := range res.Rows {
		key := ""
		for i, v := range row[:len(row)-1] {
			if i > 0 {
				key += "/"
			}
			key += types.Format(v)
		}
		v, ok := toFloat(row[len(row)-1])
		if !ok {
			return nil, fmt.Errorf("%s: non-numeric value %v", q, row[len(row)-1])
		}
		out[key] = v
	}
	return out, nil
}

func toFloat(d types.Datum) (float64, bool) {
	switch v := d.(type) {
	case int64:
		return float64(v), true
	case float64:
		return v, true
	}
	return 0, false
}
