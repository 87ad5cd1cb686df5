package main

import (
	"runtime"
	"testing"

	"repro/internal/bench"
	"repro/internal/serve"
	"repro/internal/trace"
)

// The train-fig13 workload must make exactly the calls
// bench.CollectFigure13 makes: every data point's simulated iteration
// times equal the harness's own on the same seed.
func TestTrainMatchesCollectFigure13(t *testing.T) {
	cfg, err := workloadConfig(wlTrain, defaultSeed, runtime.GOMAXPROCS(0))
	if err != nil {
		t.Fatal(err)
	}
	r := &runner{cfg: cfg, tr: newTracer(false)}
	rd := r.round()
	for _, op := range rd.ops {
		if op.err != nil {
			t.Fatalf("op failed: %v", op.err)
		}
	}
	pts, err := bench.CollectFigure13(cfg)
	if err != nil {
		t.Fatal(err)
	}
	perClass := 1 + 3*len(bench.CacheFracs)
	if len(r.trainReports) != perClass*len(trace.Classes) || len(pts) != len(bench.CacheFracs)*len(trace.Classes) {
		t.Fatalf("%d reports, %d points", len(r.trainReports), len(pts))
	}
	for i, p := range pts {
		c, j := i/len(bench.CacheFracs), i%len(bench.CacheFracs)
		reps := r.trainReports[c*perClass:]
		got := [4]float64{reps[0].IterTime, reps[1+3*j].IterTime, reps[2+3*j].IterTime, reps[3+3*j].IterTime}
		want := [4]float64{p.Hybrid, p.Static, p.StrawMan, p.ScratchPipe}
		if got != want {
			t.Errorf("class %s frac %.2f: harness iteration times %v, CollectFigure13 %v", p.Class, p.CacheFrac, got, want)
		}
	}
}

// sim_digest repeats across worker counts and moves with the seed, on
// every workload: the seed reaches the batch generator and the serving
// arrival process, and the host parallelism reaches neither.
func TestSimDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload three times")
	}
	for _, name := range workloadNames {
		digest := func(seed int64, workers int) string {
			cfg, err := workloadConfig(name, seed, workers)
			if err != nil {
				t.Fatal(err)
			}
			rd := (&runner{cfg: cfg, tr: newTracer(false)}).round()
			for _, op := range rd.ops {
				if op.err != nil {
					t.Fatalf("%s: op failed: %v", name, op.err)
				}
			}
			return roundDigest(rd)
		}
		serial := digest(defaultSeed, 1)
		if par := digest(defaultSeed, runtime.GOMAXPROCS(0)); par != serial {
			t.Errorf("%s: digest %s at 1 worker, %s at %d", name, serial, par, runtime.GOMAXPROCS(0))
		}
		if other := digest(heldOutSeed, 1); other == serial {
			t.Errorf("%s: seeds %d and %d give the same digest %s", name, defaultSeed, heldOutSeed, serial)
		}
	}
}

// digestOf sees fields a String method rounds or leaves out: a latency
// summary's StdDev, and its P99 moved by far less than a microsecond.
func TestDigestSeesEveryField(t *testing.T) {
	var base serve.Report
	base.Latency.P99 = 1.25e-3
	base.Latency.StdDev = 2e-4
	stddev, p99 := base, base
	stddev.Latency.StdDev = 3e-4
	p99.Latency.P99 += 1e-12
	d := digestOf(base)
	if digestOf(stddev) == d || digestOf(p99) == d {
		t.Fatal("reports that differ in Latency.StdDev or Latency.P99 share a digest")
	}
	if digestOf(base) != d {
		t.Fatal("digest of one report is not stable")
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := workloadConfig("nope", 1, 1); err == nil {
		t.Fatal("unknown workload accepted")
	}
}
