// Command perfbench is the repository benchmark: it runs one workload
// for a fixed time, checks every operation's simulated output, and
// prints the end-to-end metrics (untraced run) or the per-layer metrics
// (traced run) as one JSON line. See README.md for the workloads and
// metrics, and run it through run.py, which builds it first.
//
// Usage:
//
//	perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
)

// Default and held-out workload seeds: tune on the first, confirm a
// claim on the second.
const (
	defaultSeed = 42
	heldOutSeed = 1042
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Int64("seed", defaultSeed, "workload seed (held-out seed: "+strconv.Itoa(heldOutSeed)+")")
	seconds := flag.Float64("seconds", 10, "measurement time in seconds; sets the run's fixed number of rounds")
	traceOn := flag.Int("trace", 0, "1 = traced run: per-layer metrics, spans and a folded CPU profile")
	out := flag.String("out", filepath.Join("perfbench", "out"), "directory for the traced run's span and profile files")
	flag.Parse()

	if *seconds <= 0 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be > 0 and --trace 0 or 1")
		os.Exit(2)
	}
	cfg, err := workloadConfig(*name, *seed, runtime.GOMAXPROCS(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	rounds := roundCount(*name, *seconds)
	var res *result
	if *traceOn == 1 {
		res, err = tracedRun(*name, cfg, rounds, *out)
	} else {
		res, err = untracedRun(*name, cfg, rounds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// measured is the outcome of running rounds of one workload.
type measured struct {
	rounds    []*round
	attempted int
	failed    int
	digest    string
	failures  []string
}

// runRounds runs n whole rounds, checking every operation: it must not
// error, must pass its workload's output checks, and must reproduce the
// simulated report of the same operation in ref exactly (nil: in the
// first round).
func runRounds(r *runner, n int, ref []string) *measured {
	m := &measured{}
	for len(m.rounds) < n {
		rd := r.round()
		if ref == nil {
			ref = opDigests(rd)
		}
		for i := range rd.ops {
			op := &rd.ops[i]
			m.attempted++
			if op.err == nil && (i >= len(ref) || op.digest != ref[i]) {
				op.err = fmt.Errorf("op %d: simulated report differs from the reference round's", i)
			}
			if op.err != nil {
				m.failed++
				if len(m.failures) < 5 {
					m.failures = append(m.failures, op.err.Error())
				}
			}
		}
		m.rounds = append(m.rounds, rd)
	}
	m.digest = roundDigest(m.rounds[0])
	return m
}

// opDigests lists the digest of each of a round's operations.
func opDigests(rd *round) []string {
	var ds []string
	for _, op := range rd.ops {
		ds = append(ds, op.digest)
	}
	return ds
}

// roundDigest is the sim_digest: a hash over every simulated report of
// one round.
func roundDigest(rd *round) string {
	h := sha256.New()
	for _, op := range rd.ops {
		h.Write([]byte(op.digest))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// roundCount is how many rounds a run of --seconds plays: the seconds
// over the workload's nominal round time, rounded up, and at least the
// workload's minimum. It depends on the arguments only, never on the
// host's speed, so every run of a workload takes the same order
// statistics of the same number of samples.
func roundCount(name string, seconds float64) int {
	return max(minRounds[name], int(math.Ceil(seconds/roundSeconds[name])))
}

// opMedian is operation i's median of f across rounds. Every round
// plays the same operations, so a burst of host noise during one round
// moves no per-operation estimate.
func (m *measured) opMedian(i int, f func(opSample) time.Duration) float64 {
	var xs []float64
	for _, rd := range m.rounds {
		if i < len(rd.ops) {
			xs = append(xs, f(rd.ops[i]).Seconds())
		}
	}
	return median(xs)
}

// throughput is simulated iterations and queries per host second of
// Run/RunServe time, over one round of per-operation median times.
func (m *measured) throughput() (itersPerS, queriesPerS float64) {
	var iters, queries int64
	var run float64
	for i, op := range m.rounds[0].ops {
		iters += op.iters
		queries += op.queries
		run += m.opMedian(i, func(o opSample) time.Duration { return o.runDur })
	}
	if run <= 0 {
		return 0, 0
	}
	return float64(iters) / run, float64(queries) / run
}

// setupSeconds is one round's set-up time, over per-operation medians.
func (m *measured) setupSeconds() float64 {
	var s float64
	for i := range m.rounds[0].ops {
		s += m.opMedian(i, func(o opSample) time.Duration { return o.envDur + o.engDur })
	}
	return s
}

func untracedRun(name string, cfg bench.Config, rounds int) (*result, error) {
	r := &runner{cfg: cfg, tr: newTracer(false)}
	cpu0, wall0 := cpuNow(), time.Now()
	m := runRounds(r, rounds, nil)
	cpu, wall := cpuNow()-cpu0, time.Since(wall0)

	var allocMB, opMs []float64
	for _, rd := range m.rounds {
		allocMB = append(allocMB, float64(rd.allocBytes)/1e6)
		for _, op := range rd.ops {
			opMs = append(opMs, ms(op.runDur))
		}
	}
	sort.Float64s(opMs)
	// The tail is the highest percentile with at least ten ops beyond
	// it: p90 over whole Figure 13 sweeps (>= 128 Run calls). A serving
	// run has too few RunServe calls (>= 5) for any; its tail is the
	// nearest-rank upper quartile, which at five or more samples is not
	// the maximum, so one noisy call does not set it.
	tailName, tail := "p75", nearestRank(opMs, 0.75)
	if len(opMs) >= 100 {
		tailName, tail = "p90", nearestRank(opMs, 0.90)
	}
	itersPerS, queriesPerS := m.throughput()
	metrics := map[string]metric{
		"setup_s":       {m.setupSeconds(), "s"},
		"iters_per_s":   {itersPerS, "1/s"},
		"queries_per_s": {queriesPerS, "1/s"},
		"op_p50_ms":     {median(opMs), "ms"},
		"op_tail_ms":    {tail, "ms"},
		"alloc_mb":      {median(allocMB), "MB"},
		"peak_rss_mb":   {peakRSSMB(), "MB"},
	}
	report(name, cfg, m)
	fmt.Printf("ops: %d samples, tail = %s, min %.4g ms, max %.4g ms\n", len(opMs), tailName, opMs[0], opMs[len(opMs)-1])
	fmt.Printf("host: %.2f s CPU in %.2f s wall (%.2f CPUs busy)\n", cpu.Seconds(), wall.Seconds(), cpu.Seconds()/wall.Seconds())
	printMetrics(metrics)
	return m.result(metrics), nil
}

func (m *measured) result(metrics map[string]metric) *result {
	return &result{Correct: m.failed == 0, Attempted: m.attempted, Failed: m.failed, Metrics: metrics}
}

// report prints the run's identity, digest and check outcome.
func report(name string, cfg bench.Config, m *measured) {
	fmt.Printf("workload %s seed %d gomaxprocs %d rounds %d\n",
		name, cfg.Seed, runtime.GOMAXPROCS(0), len(m.rounds))
	fmt.Printf("sim_digest %s\n", m.digest)
	fmt.Printf("failed_op_share %g (%d of %d ops)\n", float64(m.failed)/float64(m.attempted), m.failed, m.attempted)
	for _, f := range m.failures {
		fmt.Printf("FAIL %s\n", f)
	}
}

func printMetrics(ms map[string]metric) {
	keys := make([]string, 0, len(ms))
	for k := range ms {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-28s %14.6g %s\n", k, ms[k].Value, ms[k].Unit)
	}
}

// tracedRun measures per-layer numbers. A first, untraced phase gives
// the reference throughput; the traced phase records spans around every
// layer call and a CPU profile; then the layer replays run, traced.
func tracedRun(name string, cfg bench.Config, rounds int, outDir string) (*result, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", name, cfg.Seed))

	plain := &runner{cfg: cfg, tr: newTracer(false)}
	plainRounds := max(1, rounds/3)
	m0 := runRounds(plain, plainRounds, nil)
	plainIters, plainQueries := m0.throughput()

	tr := newTracer(true)
	traced := &runner{cfg: cfg, tr: tr}
	profPath := base + ".cpu.pprof"
	pf, err := os.Create(profPath)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(pf); err != nil {
		pf.Close()
		return nil, err
	}
	m := runRounds(traced, max(1, rounds-plainRounds), opDigests(m0.rounds[0]))
	pprof.StopCPUProfile()
	if err := pf.Close(); err != nil {
		return nil, err
	}
	tracedIters, tracedQueries := m.throughput()
	workSpans := len(tr.spans)

	var nextSt replayStat // serving samples IDs per query and never calls Next
	if !cfg.Serve.Active() {
		if nextSt, err = replayTrace(cfg, tr); err != nil {
			return nil, err
		}
	}
	planSt, err := replayPlan(cfg, tr)
	if err != nil {
		return nil, err
	}

	prof, err := readProfile(profPath)
	if err != nil {
		return nil, err
	}
	fold := foldProfile(prof)
	if err := fold.writeFolded(base + ".folded.txt"); err != nil {
		return nil, err
	}
	if err := tr.writeChrome(base + ".trace.json"); err != nil {
		return nil, err
	}

	metrics := map[string]metric{}
	set := func(k string, v float64, unit string) { metrics[k] = metric{v, unit} }
	// Set-up comes from the untraced phase: while the profiler runs, the
	// kernel advances the process CPU clock only at scheduler ticks, too
	// coarse for set-up calls of microseconds.
	var envMs, engMs []float64
	for _, rd := range m0.rounds {
		var env, eng time.Duration
		for _, op := range rd.ops {
			env += op.envDur
			eng += op.engDur
		}
		envMs = append(envMs, ms(env))
		engMs = append(engMs, ms(eng))
	}
	runMs := map[string][]float64{}
	kinds := []string{"hybrid", "static", "strawman", "scratchpipe"}
	for _, rd := range m.rounds {
		run := map[string]time.Duration{}
		for _, op := range rd.ops {
			run[op.kind] += op.runDur
		}
		for _, k := range kinds {
			runMs[k] = append(runMs[k], ms(run[k]))
		}
	}
	set("setup.env_ms", median(envMs), "ms")
	set("setup.engine_ms", median(engMs), "ms")
	for _, k := range kinds {
		set("engine.run_ms."+k, median(runMs[k]), "ms")
	}
	set("trace.next_us", nextSt.usPerCall(), "us")
	set("trace.next_allocs", nextSt.allocsPerCall(), "count")
	set("core.plan_us", planSt.usPerCall(), "us")
	set("core.plan_allocs", planSt.allocsPerCall(), "count")
	for _, mod := range profileModules {
		set(mod+".self_share", fold.share(mod), "ratio")
	}
	set("runtime.gc_share", ratio(float64(fold.gc), float64(fold.total)), "ratio")
	set("runtime.map_share", ratio(float64(fold.maps), float64(fold.total)), "ratio")

	var plans, coordMsgs, queries int64
	var serveRun time.Duration
	var serveAllocs, serveBytes uint64
	for _, rd := range m.rounds {
		for _, op := range rd.ops {
			plans += op.plans
			coordMsgs += op.coordMsg
			if op.kind == "serve" {
				queries += op.queries
				serveRun += op.runDur
				serveAllocs += op.runAllocs
				serveBytes += op.runBytes
			}
		}
	}
	set("shard.coord_rounds_per_plan", ratio(float64(coordMsgs), float64(plans)), "count")
	set("serve.us_per_query", ratio(float64(serveRun.Nanoseconds())/1e3, float64(queries)), "us")
	set("serve.allocs_per_query", ratio(float64(serveAllocs), float64(queries)), "count")
	set("serve.bytes_per_query", ratio(float64(serveBytes), float64(queries)), "B")

	sim := m.rounds[0].sim
	for _, k := range []string{"engine.hit_rate", "engine.sp_speedup_avg", "serve.hit_rate",
		"serve.sim_p99_ms", "serve.sim_throughput_qps", "serve.batch_occupancy", "serve.dropped"} {
		set(k, sim[k], simUnit(k))
	}
	set("tracing.iters_per_s_delta", tracedIters-plainIters, "1/s")
	set("tracing.queries_per_s_delta", tracedQueries-plainQueries, "1/s")

	all := &measured{
		rounds: append(m0.rounds, m.rounds...), attempted: m0.attempted + m.attempted,
		failed: m0.failed + m.failed, digest: m0.digest, failures: append(m0.failures, m.failures...),
	}
	report(name, cfg, all)
	fmt.Printf("traced phase: %d rounds, %d spans (%d from layer replays), %d CPU samples\n",
		len(m.rounds), len(tr.spans), len(tr.spans)-workSpans, fold.total)
	fmt.Printf("wrote %s.trace.json, %s.folded.txt, %s\n", base, base, profPath)
	printMetrics(metrics)
	return all.result(metrics), nil
}

func simUnit(k string) string {
	switch k {
	case "serve.sim_p99_ms":
		return "ms"
	case "serve.sim_throughput_qps":
		return "1/s"
	case "serve.dropped":
		return "count"
	}
	return "ratio"
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// nearestRank is the q-quantile of sorted xs by the nearest-rank rule.
func nearestRank(sorted []float64, q float64) float64 {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// peakRSSMB is this process's peak resident set (VmHWM), in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "VmHWM:") {
			fields := strings.Fields(line)
			if len(fields) >= 2 {
				kb, err := strconv.ParseFloat(fields[1], 64)
				if err == nil {
					return kb * 1024 / 1e6
				}
			}
		}
	}
	return math.NaN()
}

// digestOf hashes every field of the given simulated reports, unexported
// ones included. The %#v verb ignores String methods (which round, and
// leave fields out) and prints floats in their shortest exact form, so
// equal digests mean bit-equal reports.
func digestOf(parts ...any) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%#v|", p)
	}
	return hex.EncodeToString(h.Sum(nil))
}
