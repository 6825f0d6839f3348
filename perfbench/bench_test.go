package main

import (
	"reflect"
	"testing"

	"noftl"
)

// tinyKV shrinks a kv workload to a size a unit test runs in about a second.
func tinyKV(c kvConfig) kvConfig {
	c.rows = 2000
	c.geometry = noftl.DeviceGeometry{Channels: 2, DiesPerChannel: 2, PlanesPerDie: 1, BlocksPerDie: 32, PagesPerBlock: 32, PageSize: 4096}
	c.pool = min(c.pool, 64)
	if !c.update {
		c.pool = 256 // the table still fits the pool
	}
	c.checkpointBytes = 1 << 20
	c.warmupTxns, c.txns = 2000, 5000
	return c
}

// simPlane is everything a run reports in simulated time.
type simPlane struct {
	sim        counters
	simResp    []float64
	start, end layout
	metrics    map[string]metric
}

func simulated(r *run) simPlane {
	p := simPlane{sim: r.sim, start: r.start, end: r.end, metrics: map[string]metric{}}
	for _, d := range r.simResp {
		p.simResp = append(p.simResp, float64(d))
	}
	for name, m := range endToEnd(r) {
		switch name {
		case "sim_tps", "sim_txn_mean_ms", "sim_txn_p99_ms", "sim_write_us", "write_amp":
			p.metrics[name] = m
		}
	}
	return p
}

// TestKVSimulatedPlaneDeterministic runs each kv workload twice on one seed:
// the simulated-time metrics and every per-layer counter must be identical.
func TestKVSimulatedPlaneDeterministic(t *testing.T) {
	for name, c := range map[string]kvConfig{"kv-update": kvUpdate, "kv-read": kvRead} {
		t.Run(name, func(t *testing.T) {
			c := tinyKV(c)
			var planes []simPlane
			for i := 0; i < 2; i++ {
				r, err := runKV(c, options{workload: name, seed: 7})
				if err != nil {
					t.Fatal(err)
				}
				if errs := append(r.errs, r.checks...); len(errs) > 0 {
					t.Fatalf("output checks failed: %v", errs)
				}
				planes = append(planes, simulated(r))
			}
			if !reflect.DeepEqual(planes[0], planes[1]) {
				t.Errorf("simulated plane differs between two runs of seed 7:\n%+v\n%+v", planes[0], planes[1])
			}
		})
	}
}

// TestTPCCSimulatedDrift records, without asserting, how far two tpcc runs
// of one seed drift apart in simulated time: the engine does not order
// terminals deterministically yet.
func TestTPCCSimulatedDrift(t *testing.T) {
	c := tpccBench
	c.geometry = noftl.DeviceGeometry{Channels: 4, DiesPerChannel: 2, PlanesPerDie: 1, BlocksPerDie: 24, PagesPerBlock: 32, PageSize: 4096}
	c.pool = 192
	c.workload.Warehouses = 1
	c.workload.CustomersPerDistrict = 60
	c.workload.ItemCount = 300
	c.workload.InitialOrdersPerDistrict = 60
	c.workload.Transactions = 300
	c.workload.CheckpointEvery = 100
	c.warmupTxns, c.rounds = 200, 3
	var runs []simPlane
	for i := 0; i < 2; i++ {
		r, err := runTPCC(c, options{workload: "tpcc", seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		if errs := append(r.errs, r.checks...); len(errs) > 0 {
			t.Fatalf("output checks failed: %v", errs)
		}
		runs = append(runs, simulated(r))
	}
	for name, m := range runs[0].metrics {
		t.Logf("%-16s %12.6g %12.6g drift %+.2f%%", name, m.Value, runs[1].metrics[name].Value,
			100*(runs[1].metrics[name].Value-m.Value)/m.Value)
	}
	a, b := runs[0].sim.n[copybacks], runs[1].sim.n[copybacks]
	t.Logf("%-16s %12d %12d", "gc_copybacks", a, b)
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"noftl/internal/wal.(*Log).Append":         "wal",
		"noftl/internal/tpcc.(*terminal).newOrder": "tpcc",
		"noftl.(*Table).Get":                       "noftl",
		"noftl/internal/sim.(*Clock).Observe":      "other",
		"main.(*kvState).scan-range1":              "other",
	} {
		if got, ok := moduleOf(fn); !ok || got != want {
			t.Errorf("moduleOf(%q) = %q, %v; want %q", fn, got, ok, want)
		}
	}
	if _, ok := moduleOf("runtime.mallocgc"); ok {
		t.Error("runtime.mallocgc attributed to a noftl module")
	}
}
