package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/hw"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/trace"
)

// Workload names, as BENCHMARK.json lists them.
const (
	wlTrain       = "train-fig13"
	wlServeFlash  = "serve-flash-batch"
	wlServeSteady = "serve-steady-cluster"
)

var workloadNames = []string{wlTrain, wlServeFlash, wlServeSteady}

// roundSeconds is each workload's nominal wall time of one round on a
// 2-vCPU virtual machine. It only sizes a run (see roundCount).
var roundSeconds = map[string]float64{wlTrain: 3.8, wlServeFlash: 2.3, wlServeSteady: 5.8}

// minRounds is each workload's fewest rounds per run: two sweeps give
// 128 Run calls, 12 beyond their p90; five serving runs keep the upper
// quartile below the maximum.
var minRounds = map[string]int{wlTrain: 2, wlServeFlash: 5, wlServeSteady: 5}

// opSample is one operation of a round: one Engine.Run call (with the
// env and engine construction before it) or one RunServe call.
type opSample struct {
	kind     string // engine name, or "serve"
	envDur   time.Duration
	engDur   time.Duration
	runDur   time.Duration
	iters    int64 // simulated iterations retired (serving: worker service passes)
	queries  int64 // simulated queries (training: samples trained)
	plans    int64 // per-table Plan calls the op made (coordination denominator)
	coordMsg int64 // cross-node coordination message rounds
	// runAllocs/runBytes are the allocator's counts across RunServe.
	runAllocs, runBytes uint64
	digest              string
	err                 error
}

// round is one fixed-length unit of a workload: a whole Figure 13 sweep
// (64 ops) or one serving simulation (1 op). Its length never depends
// on the host, so per-query host cost compares across commits.
type round struct {
	ops        []opSample
	allocBytes uint64
	// sim is the round's simulated headline values (checked for exact
	// repeat through the digest, reported per layer).
	sim map[string]float64
}

// workloadConfig is the bench.Config a workload runs, at a seed.
func workloadConfig(name string, seed int64, workers int) (bench.Config, error) {
	cfg := bench.Quick()
	cfg.Seed = seed
	cfg.Workers = workers
	switch name {
	case wlTrain:
		return cfg, nil
	case wlServeFlash:
		arr, err := serve.ParseArrival("flash:20000:10:0.3:0.2")
		if err != nil {
			return cfg, err
		}
		batch, err := serve.ParseBatch("8")
		if err != nil {
			return cfg, err
		}
		topo, err := hw.ParseTopology("cluster2x2")
		if err != nil {
			return cfg, err
		}
		cfg.Shards = 1
		cfg.Topology = topo
		cfg.Placement = hw.PlaceStripe
		cfg.Serve = serve.Options{
			Replicas: 4,
			Router:   serve.PolicyTelemetry,
			Arrival:  arr,
			Requests: 50_000,
			Batch:    batch,
		}
		return cfg, nil
	case wlServeSteady:
		arr, err := serve.ParseArrival("poisson:2000")
		if err != nil {
			return cfg, err
		}
		topo, err := hw.ParseTopology("cluster2x2")
		if err != nil {
			return cfg, err
		}
		cfg.Shards = 4
		cfg.Topology = topo
		cfg.Placement = hw.PlaceStripe
		cfg.Coord = shard.CoordHier
		cfg.Serve = serve.Options{
			Replicas: 4,
			Router:   serve.PolicyHitAware,
			Arrival:  arr,
			Requests: 20_000,
		}
		return cfg, nil
	}
	return cfg, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// envConfig is the EnvConfig bench.CollectFigure13 and bench.HotPath
// build for cfg and class.
func envConfig(cfg bench.Config, class trace.Class) engine.EnvConfig {
	return engine.EnvConfig{
		Model:        cfg.Model,
		System:       cfg.System,
		Class:        class,
		Seed:         cfg.Seed,
		Workers:      cfg.Workers,
		Shards:       cfg.Shards,
		Topology:     cfg.Topology,
		Placement:    cfg.Placement,
		Coord:        cfg.Coord,
		Reshard:      cfg.Reshard,
		Faults:       cfg.Faults,
		CkptInterval: cfg.CkptInterval,
		Serve:        cfg.Serve,
	}
}

// engineBuilder builds one of the four Figure 13 design points.
type engineBuilder struct {
	kind  string
	frac  float64
	build func(*engine.Env) (engine.Engine, error)
}

// fig13Builders lists the engines of one locality class in exactly the
// order bench.CollectFigure13 runs them.
func fig13Builders(cfg bench.Config) []engineBuilder {
	bs := []engineBuilder{{kind: "hybrid", build: func(env *engine.Env) (engine.Engine, error) {
		return engine.NewHybrid(env), nil
	}}}
	for _, frac := range bench.CacheFracs {
		bs = append(bs,
			engineBuilder{kind: "static", frac: frac, build: func(env *engine.Env) (engine.Engine, error) {
				return engine.NewStaticCache(env, frac)
			}},
			engineBuilder{kind: "strawman", frac: frac, build: func(env *engine.Env) (engine.Engine, error) {
				return engine.NewStrawMan(env, frac, "lru")
			}},
			engineBuilder{kind: "scratchpipe", frac: frac, build: func(env *engine.Env) (engine.Engine, error) {
				return engine.NewScratchPipe(env, engine.ScratchPipeOptions{CacheFrac: frac, CoordOverlap: cfg.CoordOverlap})
			}},
		)
	}
	return bs
}

// runner executes rounds of one workload and records spans when its
// tracer is on.
type runner struct {
	cfg bench.Config
	tr  *tracer
	// trainReports keeps the simulated reports of the last training
	// round, for the equivalence test against bench.CollectFigure13.
	trainReports []*engine.Report
}

// round runs one fixed-length unit of the workload. It starts from a
// collected heap, so no round pays for the garbage of the one before.
func (r *runner) round() *round {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var rd *round
	if r.cfg.Serve.Active() {
		rd = r.serveRound()
	} else {
		rd = r.trainRound()
	}
	runtime.ReadMemStats(&after)
	rd.allocBytes = after.TotalAlloc - before.TotalAlloc
	return rd
}

// trainRound is one Figure 13 sweep: for every locality class, the
// hybrid baseline then static/strawman/ScratchPipe at each cache
// fraction, each on a fresh environment, as bench.CollectFigure13 does.
func (r *runner) trainRound() *round {
	cfg := r.cfg
	rd := &round{sim: map[string]float64{}}
	r.trainReports = r.trainReports[:0]
	var hits, misses int64
	var spSpeedup float64
	var points int
	for _, class := range trace.Classes {
		var static float64
		for _, b := range fig13Builders(cfg) {
			op, rep := r.trainOp(class, b)
			rd.ops = append(rd.ops, op)
			r.trainReports = append(r.trainReports, rep)
			if op.err != nil {
				continue
			}
			hits += rep.Hits
			misses += rep.Misses
			switch b.kind {
			case "static":
				static = rep.IterTime
			case "scratchpipe":
				spSpeedup += static / rep.IterTime
				points++
			}
		}
	}
	if hits+misses > 0 {
		rd.sim["engine.hit_rate"] = float64(hits) / float64(hits+misses)
	}
	if points > 0 {
		rd.sim["engine.sp_speedup_avg"] = spSpeedup / float64(points)
	}
	return rd
}

// trainOp builds one design point on a fresh environment and runs it.
func (r *runner) trainOp(class trace.Class, b engineBuilder) (opSample, *engine.Report) {
	cfg := r.cfg
	op := opSample{kind: b.kind}
	opID := r.tr.newOp()
	root := r.tr.begin("fig13.op", 0, opID)
	defer r.tr.end(root)

	t0 := cpuNow()
	s := r.tr.begin("setup.env", root, opID)
	env, err := engine.NewEnv(envConfig(cfg, class))
	r.tr.end(s)
	op.envDur = cpuNow() - t0
	if err != nil {
		op.err = err
		return op, nil
	}
	t1 := cpuNow()
	s = r.tr.begin("setup.engine."+b.kind, root, opID)
	eng, err := b.build(env)
	r.tr.end(s)
	op.engDur = cpuNow() - t1
	if err != nil {
		op.err = err
		return op, nil
	}
	t2 := cpuNow()
	s = r.tr.begin("engine.run."+b.kind, root, opID)
	rep, err := eng.Run(cfg.Iters)
	r.tr.end(s)
	op.runDur = cpuNow() - t2
	if err != nil {
		op.err = err
		return op, nil
	}
	op.iters = int64(rep.Iters)
	op.queries = int64(rep.Iters) * int64(cfg.Model.BatchSize)
	if rep.CoordMode != "" { // a dynamic scratchpad planned every iteration
		op.plans = int64(rep.Iters) * int64(cfg.Model.NumTables)
	}
	op.coordMsg = rep.Coord.Messages
	op.digest = digestOf(class, b.kind, b.frac, *rep)
	op.err = checkTrain(cfg, b.kind, rep)
	return op, rep
}

// serveSetups is how many times a serving round builds its environment
// to time set-up.
const serveSetups = 15

// serveRound is one serving simulation on the High-locality trace, as
// bench.HotPath measures the serving family.
func (r *runner) serveRound() *round {
	cfg := r.cfg
	rd := &round{sim: map[string]float64{}}
	op := opSample{kind: "serve"}
	opID := r.tr.newOp()
	root := r.tr.begin("serve.op", 0, opID)
	defer r.tr.end(root)

	// The fleet itself is built inside RunServe, so a serving run's
	// set-up is only the environment: a sub-millisecond call, timed
	// serveSetups times and reported as its median.
	var env *engine.Env
	setups := make([]float64, serveSetups)
	for i := range setups {
		t0 := cpuNow()
		s := r.tr.begin("setup.env", root, opID)
		e, err := engine.NewEnv(envConfig(cfg, trace.High))
		r.tr.end(s)
		setups[i] = float64(cpuNow() - t0)
		if err != nil {
			op.err = err
			rd.ops = append(rd.ops, op)
			return rd
		}
		env = e
	}
	op.envDur = time.Duration(median(setups))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t1 := cpuNow()
	s := r.tr.begin("serve.run", root, opID)
	rep, err := engine.RunServe(env)
	r.tr.end(s)
	op.runDur = cpuNow() - t1
	runtime.ReadMemStats(&after)
	op.runAllocs = after.Mallocs - before.Mallocs
	op.runBytes = after.TotalAlloc - before.TotalAlloc
	if err != nil {
		op.err = err
		rd.ops = append(rd.ops, op)
		return rd
	}
	// A worker service pass is one Plan per table: one per served query
	// unbatched, one per launched batch when batching.
	passes := rep.Served
	if rep.Batch.Enabled() {
		passes = rep.Batches
	}
	op.iters = passes
	op.queries = rep.Offered
	op.plans = passes * int64(cfg.Model.NumTables)
	op.coordMsg = rep.CoordRounds
	op.digest = digestOf(*rep)
	op.err = checkServe(cfg, rep)
	rd.ops = append(rd.ops, op)

	rd.sim["serve.hit_rate"] = rep.HitRate()
	rd.sim["serve.sim_p99_ms"] = rep.Latency.P99 * 1e3
	rd.sim["serve.sim_throughput_qps"] = rep.Throughput
	rd.sim["serve.dropped"] = float64(rep.Drops)
	if rep.Batches > 0 {
		rd.sim["serve.batch_occupancy"] = float64(rep.BatchedQueries) / float64(rep.Batches)
	}
	return rd
}

// checkTrain verifies one training run's report: the requested
// iteration count, a positive finite iteration time, and cache
// occurrence counts that add up to the lookups of the measured
// iterations.
func checkTrain(cfg bench.Config, kind string, rep *engine.Report) error {
	if rep.Iters != cfg.Iters {
		return fmt.Errorf("%s: ran %d iterations, want %d", kind, rep.Iters, cfg.Iters)
	}
	if !(rep.IterTime > 0) || math.IsInf(rep.IterTime, 0) {
		return fmt.Errorf("%s: iteration time %v", kind, rep.IterTime)
	}
	m := cfg.Model
	played := int64(rep.Iters) * int64(m.NumTables*m.BatchSize*m.Lookups)
	if rep.Hits+rep.Misses != played {
		return fmt.Errorf("%s: hits %d + misses %d != %d lookups played", kind, rep.Hits, rep.Misses, played)
	}
	return nil
}

// checkServe verifies one serving report: exact conservation of every
// offered query, goodput within throughput, and cache occurrence counts
// that add up to the lookups the served queries played.
func checkServe(cfg bench.Config, rep *serve.Report) error {
	if rep.Offered != int64(cfg.Serve.Requests) {
		return fmt.Errorf("serve: offered %d queries, want %d", rep.Offered, cfg.Serve.Requests)
	}
	if got := rep.Served + rep.Shed + rep.Drops + rep.TimedOut; got != rep.Offered {
		return fmt.Errorf("serve: conservation broken: offered %d != served %d + shed %d + dropped %d + timed-out %d",
			rep.Offered, rep.Served, rep.Shed, rep.Drops, rep.TimedOut)
	}
	if rep.Goodput > rep.Throughput {
		return fmt.Errorf("serve: goodput %v > throughput %v", rep.Goodput, rep.Throughput)
	}
	m := cfg.Model
	played := (rep.Served - rep.Degraded) * int64(m.NumTables*m.Lookups)
	if rep.Hits+rep.Misses != played {
		return fmt.Errorf("serve: hits %d + misses %d != %d lookups played", rep.Hits, rep.Misses, played)
	}
	return nil
}
