package main

import (
	"math/rand"
	"runtime"
	"time"

	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/hw"
	"repro/internal/par"
	"repro/internal/shard"
	"repro/internal/trace"
)

// Layer replays: the traced run drives trace.Generator.Next and
// shard.Manager.Plan/Release directly on the workload's own inputs, so
// their per-call cost and allocations are measured where the work
// happens rather than inferred from the whole run.

// replayStat is the per-call cost of one replayed layer call.
type replayStat struct {
	calls  int
	dur    time.Duration
	allocs uint64
}

func (s replayStat) usPerCall() float64 {
	if s.calls == 0 {
		return 0
	}
	return float64(s.dur.Nanoseconds()) / 1e3 / float64(s.calls)
}

func (s replayStat) allocsPerCall() float64 {
	if s.calls == 0 {
		return 0
	}
	return float64(s.allocs) / float64(s.calls)
}

// pipeDepth is how many batches a training replay keeps in flight: the
// scratchpad's past window, the batch being planned, and its future
// window (core.DefaultWindows).
func pipeDepth() int {
	past, future := core.DefaultWindows()
	return past + 1 + future
}

// replayTrace times Generator.Next over the batch stream one engine run
// of each locality class consumes, recycling batches once they leave the
// pipeline window. Only training calls Next; serving samples its IDs per
// query from the generator's distributions.
func replayTrace(cfg bench.Config, tr *tracer) (replayStat, error) {
	var st replayStat
	opID := tr.newOp()
	root := tr.begin("replay.trace", 0, opID)
	defer tr.end(root)
	n := cfg.Iters + pipeDepth()
	for _, class := range trace.Classes {
		env, err := engine.NewEnv(envConfig(cfg, class))
		if err != nil {
			return st, err
		}
		gen := env.Gen
		window := make([]*trace.Batch, 0, n)
		tr.reserve(n)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			t0 := cpuNow()
			s := tr.begin("trace.next", root, opID)
			b := gen.Next()
			tr.end(s)
			st.dur += cpuNow() - t0
			window = append(window, b)
			if len(window) > pipeDepth() {
				gen.Recycle(window[0])
				window = window[1:]
			}
		}
		runtime.ReadMemStats(&after)
		st.calls += n
		st.allocs += after.Mallocs - before.Mallocs
	}
	return st, nil
}

// replayPlan times shard.Manager Plan+Release on the workload's own
// inputs. Training: ScratchPipe-configured managers (look-ahead
// windows, prewarmed) plan each class's batch stream at every cache
// fraction. Serving: a cold replica manager plans per-query (or
// per-batch) ID lists sampled from the serving distributions and
// releases each plan at once, as a fleet worker does.
func replayPlan(cfg bench.Config, tr *tracer) (replayStat, error) {
	if cfg.Serve.Active() {
		return replayServePlan(cfg, tr)
	}
	var st replayStat
	opID := tr.newOp()
	root := tr.begin("replay.core", 0, opID)
	defer tr.end(root)
	m := cfg.Model
	past, future := core.DefaultWindows()
	n := cfg.Iters + pipeDepth()
	pool := par.New(1)
	for _, class := range trace.Classes {
		env, err := engine.NewEnv(envConfig(cfg, class))
		if err != nil {
			return st, err
		}
		batches := make([]*trace.Batch, n+future)
		for i := range batches {
			batches[i] = env.Gen.Next()
		}
		dists := env.Gen.Dists()
		for _, frac := range bench.CacheFracs {
			mgrs := make([]*shard.Manager, m.NumTables)
			for t := range mgrs {
				spCfg := core.Config{
					Slots:        int(frac * float64(m.RowsPerTable)),
					Policy:       cache.LRU,
					PolicySeed:   cfg.Seed + int64(2000+t),
					PastWindow:   past,
					FutureWindow: future,
				}
				spCfg.Reserve = core.WorstCaseReserve(spCfg, m.BatchSize*m.Lookups)
				mgr, err := shard.New(shard.Config{Scratchpad: spCfg, Pool: pool})
				if err != nil {
					return st, err
				}
				rng := rand.New(rand.NewSource(cfg.Seed + int64(3000+t)))
				mgr.PrewarmRows(m.RowsPerTable, func() int64 { return dists[t].Sample(rng) }, nil)
				mgrs[t] = mgr
			}
			tr.reserve(2 * n * m.NumTables)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			fut := make([][]int64, future)
			for seq := 0; seq < n; seq++ {
				b := batches[seq]
				for t, mgr := range mgrs {
					for k := range fut {
						fut[k] = batches[seq+1+k].Uniq[t]
					}
					t0 := cpuNow()
					s := tr.begin("core.plan", root, opID)
					res, err := mgr.PlanUniqueWithHints(b.Seq, b.Uniq[t], b.Cnt[t], fut, nil)
					if err == nil && seq >= past {
						err = mgr.Release(batches[seq-past].Seq)
					}
					tr.end(s)
					st.dur += cpuNow() - t0
					if err != nil {
						return st, err
					}
					mgr.Recycle(res)
					st.calls++
				}
			}
			runtime.ReadMemStats(&after)
			st.allocs += after.Mallocs - before.Mallocs
		}
	}
	return st, nil
}

// replayQueries is how many queries (or batches) a serving plan replay
// walks per table.
const replayQueries = 600

func replayServePlan(cfg bench.Config, tr *tracer) (replayStat, error) {
	var st replayStat
	opID := tr.newOp()
	root := tr.begin("replay.core", 0, opID)
	defer tr.end(root)
	env, err := engine.NewEnv(envConfig(cfg, trace.High))
	if err != nil {
		return st, err
	}
	m := cfg.Model
	opts := cfg.Serve.WithDefaults()
	perPlan := 1
	if opts.Batch.Enabled() {
		perPlan = opts.Batch.Cap
	}
	shards := cfg.Shards
	place := hw.Placement{}
	if cfg.Topology != nil && shards > 1 {
		// Worker 0's placement: its shards striped over the sockets of
		// its own host, as the fleet places them.
		var hostNodes []int
		for i, n := range cfg.Topology.Nodes {
			if n.Host == cfg.Topology.Nodes[0].Host {
				hostNodes = append(hostNodes, i)
			}
		}
		node := make([]int, shards)
		for j := range node {
			node[j] = hostNodes[j%len(hostNodes)]
		}
		place = hw.Placement{Topo: cfg.Topology, Node: node, Policy: hw.PlaceStripe}
	}
	mgrs := make([]*shard.Manager, m.NumTables)
	for t := range mgrs {
		spCfg := core.Config{
			Slots:      int(opts.CacheFrac * float64(m.RowsPerTable)),
			Policy:     cache.LRU,
			PolicySeed: cfg.Seed + int64(7000+t),
			PastWindow: 1,
		}
		spCfg.Reserve = core.WorstCaseReserve(spCfg, m.Lookups*perPlan)
		mgr, err := shard.New(shard.Config{
			Scratchpad: spCfg, Shards: shards, Pool: env.Pool,
			Placement: place, Coord: cfg.Coord,
		})
		if err != nil {
			return st, err
		}
		mgrs[t] = mgr
	}
	dists := env.Gen.Dists()
	rng := rand.New(rand.NewSource(cfg.Seed))
	ids := make([]int64, m.Lookups*perPlan)
	tr.reserve(replayQueries * m.NumTables)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for seq := 0; seq < replayQueries; seq++ {
		for t, mgr := range mgrs {
			for i := range ids {
				ids[i] = dists[t].Sample(rng)
			}
			t0 := cpuNow()
			s := tr.begin("core.plan", root, opID)
			res, err := mgr.Plan(seq, ids, nil)
			if err == nil {
				err = mgr.Release(seq)
			}
			tr.end(s)
			st.dur += cpuNow() - t0
			if err != nil {
				return st, err
			}
			mgr.Recycle(res)
			st.calls++
		}
	}
	runtime.ReadMemStats(&after)
	st.allocs += after.Mallocs - before.Mallocs
	return st, nil
}
