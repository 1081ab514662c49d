package main

import (
	"fmt"
	"time"

	"citusgo/internal/cluster"
	"citusgo/internal/engine"
	"citusgo/internal/trace"
)

// Simulated hardware shared by every workload: the configured network
// round trip between distinct nodes and the configured cost of one
// buffer-pool miss (charged only where a workload turns the pool on).
const (
	cfgRTT     = 100 * time.Microsecond
	cfgMiss    = 150 * time.Microsecond
	cfgIODepth = 4
	workers    = 4
	shardCount = 32
	traceRing  = 1 << 15
)

// workload is one traffic mix. boot builds the cluster, calls prepare (the
// traced run installs its hook timers there, before any traffic), loads
// the seed's data and warms caches.
type workload struct {
	name  string
	setup string // sizes, clients and loop type, for the report
	boot  func(seed int64, tc trace.Config, prepare func(*cluster.Cluster)) (instance, error)
}

// instance is a booted, loaded and warmed workload.
type instance interface {
	cluster() *cluster.Cluster
	// drive runs the workload's clients for the window.
	drive(window time.Duration, rec *recorder)
	// notes are workload-specific report lines about the last window.
	notes() []string
	// check runs the post-run output checks after traffic has stopped.
	check() []error
	close()
}

var workloads = []workload{crudHA, tenantTPCC, rtAnalytics}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// allEngines lists the coordinator, the workers and every standby.
func allEngines(c *cluster.Cluster) []*engine.Engine {
	out := append([]*engine.Engine(nil), c.Engines...)
	for id := len(c.Engines) + 1; ; id++ {
		sb := c.StandbyEngine(id)
		if sb == nil {
			return out
		}
		out = append(out, sb)
	}
}

// splitmix is a tiny seeded generator for data that must be re-derivable
// from (seed, key, ...) without storing it.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

const alphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_"

// derivedString returns n characters determined by the parts.
func derivedString(n int, parts ...uint64) string {
	h := uint64(0x5eed)
	for _, p := range parts {
		h = splitmix(h ^ p)
	}
	b := make([]byte, n)
	for i := range b {
		if i%10 == 0 {
			h = splitmix(h)
		}
		b[i] = alphabet[h&63]
		h >>= 6
	}
	return string(b)
}

// warm issues n operations per client, alternating clients from a single
// goroutine, so the state it leaves behind depends on the seed alone.
func warm(name string, clients, n int, op func(client int) outcome) error {
	for i := 0; i < n; i++ {
		for c := 0; c < clients; c++ {
			if o := op(c); o.err != nil {
				return fmt.Errorf("%s warm-up: %w", name, o.err)
			}
		}
	}
	return nil
}

func exec(s *engine.Session, q string) error {
	_, err := s.Exec(q)
	if err != nil {
		return fmt.Errorf("%s: %w", q, err)
	}
	return nil
}
