// Command perfbench is dbdht's benchmark: one closed-loop workload per
// run, measured end to end with tracing off, or layer by layer from a
// traced run.  It times calls into the layers' public functions, reads
// the counters and spans the program already exports, and adds no
// instrumentation to the program.  See README.md for the workloads and
// the metrics; run it through run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload wire-replicated-write --seed 7 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

func main() {
	names := make([]string, len(specs))
	for i, sp := range specs {
		names[i] = sp.name
	}
	var (
		workload = flag.String("workload", "", "workload to run: "+strings.Join(names, ", "))
		seed     = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds  = flag.Int("seconds", 10, "length of each measured window, in seconds")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
		workdir  = flag.String("workdir", ".bench_build", "directory for the WAL files of a run (removed at exit)")
	)
	flag.Parse()
	sp := specByName(*workload)
	switch {
	case sp == nil:
		fail(fmt.Errorf("unknown workload %q (want one of %s)", *workload, strings.Join(names, ", ")))
	case *seconds < 1:
		fail(fmt.Errorf("--seconds must be ≥ 1, got %d", *seconds))
	case *trace != 0 && *trace != 1:
		fail(fmt.Errorf("--trace must be 0 or 1, got %d", *trace))
	}
	res, err := run(sp, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *workdir)
	if err != nil {
		fail(err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(out))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// result is the last line of a run's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run executes one workload: it sets up, warms up, measures and reads
// back one cluster after another, then reports.
func run(sp *spec, seed int64, d time.Duration, traced bool, workdir string) (*result, error) {
	mode := "end-to-end (tracing off)"
	if traced {
		mode = "per-layer (untraced windows, then a traced window)"
	}
	fmt.Printf("perfbench %s  seed %d  %d windows of %v  %s\n", sp.name, seed, setups, d/setups, mode)
	in, err := genInputs(sp, seed)
	if err != nil {
		return nil, err
	}
	fmt.Printf("inputs: %d keys, %d streams of %d keys, key-stream fingerprint %016x\n",
		sp.keys, len(in.streams), streamKeys, in.print)

	b := newBench(sp, in, seed, workdir, traced)
	defer os.RemoveAll(b.walRoot)
	defer b.stop()
	var (
		total  tally
		e2e    = map[string][]float64{}
		layers = newLayers()
	)
	for k := 1; k <= setups; k++ {
		if !traced {
			fmt.Printf("before setup %d: live heap %.1f MB, %d goroutines\n",
				k, float64(liveHeap())/(1<<20), runtime.NumGoroutine())
		}
		took, err := b.start(k)
		if err != nil {
			return nil, err
		}
		e2e["setup_s"] = append(e2e["setup_s"], took.Seconds())
		total.add(b.runWindow(warmup).tally)
		var before map[string]float64
		if traced {
			b.h.take() // the warm-up's requests are not measured
			before = b.counters()
		}
		w := b.runWindow(d / setups)
		total.add(w.tally)
		p50, n := percentile(w.lat, 0.50)
		p99, _ := percentile(w.lat, 0.99)
		rate := float64(w.keys) / w.elapsed.Seconds()
		fmt.Printf("setup %d: %.3f s; window: %d batches (the latency sample count), %.0f keys/s, p50 %.3f ms, p99 %.3f ms\n",
			k, took.Seconds(), n, rate, p50, p99)
		if ev := w.events(); ev > 0 {
			p, _ := percentile(append(append([]float64(nil), w.create...), w.remove...), 0.5)
			fmt.Printf("  vnode events: %d, %.2f /s, p50 %.3f ms\n", ev, float64(ev)/w.elapsed.Seconds(), p)
		}
		if traced {
			layers.untraced(b, before, w)
			if k == setups {
				total.add(layers.traced(b, d/setups))
			}
		} else {
			e2e["keys_per_s"] = append(e2e["keys_per_s"], rate)
			e2e["batch_p50_ms"] = append(e2e["batch_p50_ms"], p50)
			e2e["batch_p99_ms"] = append(e2e["batch_p99_ms"], p99)
			if k == 1 {
				e2e["heap_mb"] = append(e2e["heap_mb"], float64(liveHeap())/(1<<20))
			}
		}
		if sp.exact() {
			rb := b.readBack()
			fmt.Printf("  read-back: %d keys, %d failed\n", rb.attempted, rb.failed)
			total.add(rb)
		}
		b.stop()
	}

	m := map[string]float64{}
	defs := endToEndDefs
	if traced {
		defs = perLayerDefs
		layers.report(m)
		m["cluster.boot_failures"] = float64(b.bootFailures)
	} else {
		for name, vs := range e2e {
			m[name], _ = percentile(vs, 0.5)
		}
	}
	res := &result{
		Correct:   total.wrong == 0,
		Attempted: total.attempted,
		Failed:    total.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	for _, def := range defs {
		v, ok := m[def.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", def.name)
		}
		res.Metrics[def.name] = metric{Value: v, Unit: def.unit}
		fmt.Printf("  %-34s %14.6g %s\n", def.name, v, def.unit)
	}
	fmt.Printf("  %-34s %14.6g (%d of %d operations; %d wrong outputs)\n", "ops_failed_ratio",
		ratio(float64(total.failed), float64(total.attempted)), total.failed, total.attempted, total.wrong)
	fmt.Printf("  %-34s %14d\n", "boot failures", b.bootFailures)
	return res, nil
}

// def names one reported metric and its unit.
type def struct{ name, unit string }

// endToEndDefs are the metrics of an untraced run.  Each is the median
// over the run's clusters of one cluster's value; setup_s is the median
// of their set-up times.  heap_mb is the live heap after the first
// cluster's window, before any cluster has been shut down: a cluster
// that is shut down can leave goroutines and memory behind, which the
// report shows as the live heap before each set-up.
var endToEndDefs = []def{
	{"keys_per_s", "1/s"},
	{"batch_p50_ms", "ms"},
	{"batch_p99_ms", "ms"},
	{"setup_s", "s"},
	{"heap_mb", "MB"},
}

// liveHeap is the Go heap in use after a forced collection: the live
// data, not garbage awaiting the collector.
func liveHeap() uint64 {
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return mem.HeapAlloc
}
