package main

import (
	"encoding/json"
	"os"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	// root [0,100) with two overlapping children [10,40) and [30,60), a
	// grandchild [20,25) under the first, a child [90,120) that runs past
	// the root's end, and an orphan whose parent (99) was not recorded.
	spans := []span{
		{id: 1, parent: 0, name: "op", start: 0, end: 100},
		{id: 2, parent: 1, name: "rpc", start: 10, end: 40},
		{id: 3, parent: 1, name: "rpc", start: 30, end: 60},
		{id: 4, parent: 2, name: "serve", start: 20, end: 25},
		{id: 5, parent: 1, name: "late", start: 90, end: 120},
		{id: 6, parent: 99, name: "orphan", start: 5, end: 15},
	}
	got := selfTimes(spans)
	want := []int64{
		100 - 50 - 10, // children cover [10,60) and the clipped [90,100)
		30 - 5,
		30,
		5,
		30,
		10, // a missing parent makes it a root; nothing subtracts it
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d (%s) = %d, want %d", spans[i].id, spans[i].name, got[i], want[i])
		}
	}

	st := map[string]*stage{}
	stages(spans, got, st)
	if rpc := st["rpc"]; rpc.n != 2 || rpc.total != 60 || rpc.self != 55 {
		t.Errorf("rpc stage = %+v, want n=2 total=60 self=55", *rpc)
	}
	if ms := st["op"].meanMs(); ms != 100/1e6 {
		t.Errorf("op mean = %v ms, want %v", ms, 100/1e6)
	}
	if ms := st["absent"].meanSelfMs(); ms != 0 {
		t.Errorf("absent stage mean self = %v, want 0", ms)
	}
}

func TestCovered(t *testing.T) {
	for _, tc := range []struct {
		iv   [][2]int64
		want int64
	}{
		{nil, 0},
		{[][2]int64{{0, 10}}, 10},
		{[][2]int64{{5, 10}, {0, 3}}, 8},
		{[][2]int64{{0, 10}, {2, 4}, {8, 15}}, 15}, // nested and chained
		{[][2]int64{{0, 5}, {5, 9}}, 9},            // touching
	} {
		if got := covered(tc.iv); got != tc.want {
			t.Errorf("covered(%v) = %d, want %d", tc.iv, got, tc.want)
		}
	}
}

func TestPercentile(t *testing.T) {
	samples := make([]float64, 100)
	for i := range samples {
		samples[i] = float64(100 - i) // 100..1, unsorted
	}
	for _, tc := range []struct {
		p    float64
		want float64
	}{
		{0.50, 50}, {0.99, 99}, {1, 100}, {0.001, 1},
	} {
		got, n := percentile(samples, tc.p)
		if got != tc.want || n != 100 {
			t.Errorf("p%v = %v over %d samples, want %v over 100", tc.p, got, n, tc.want)
		}
	}
	// Nearest rank: with 3 samples the median is the middle one and p99
	// is the largest.
	if got, n := percentile([]float64{3, 1, 2}, 0.5); got != 2 || n != 3 {
		t.Errorf("median of 3 = %v over %d, want 2 over 3", got, n)
	}
	if got, _ := percentile([]float64{3, 1, 2}, 0.99); got != 3 {
		t.Errorf("p99 of 3 = %v, want 3", got)
	}
	if got, n := percentile(nil, 0.5); got != 0 || n != 0 {
		t.Errorf("percentile of nothing = %v over %d, want 0 over 0", got, n)
	}
}

func TestRatios(t *testing.T) {
	if got := ratio(512, 256); got != 2 {
		t.Errorf("ratio(512, 256) = %v, want 2", got)
	}
	if got := ratio(7, 0); got != 0 {
		t.Errorf("ratio over nothing = %v, want 0", got)
	}
	if got := mean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("mean = %v, want 3", got)
	}
	if got := mean(nil); got != 0 {
		t.Errorf("mean of nothing = %v, want 0", got)
	}
}

func TestValues(t *testing.T) {
	sum := keySum("key-00000042")
	v := make([]byte, valueSize)
	putValue(v, sum, 7)
	if ver, ok := checkValue(v, sum); !ok || ver != 7 {
		t.Fatalf("checkValue of an intact value = (%d, %v), want (7, true)", ver, ok)
	}
	if _, ok := checkValue(v, keySum("key-00000043")); ok {
		t.Error("a value passed as another key's")
	}
	for _, i := range []int{0, 9, valueSize - 1} {
		bad := append([]byte(nil), v...)
		bad[i] ^= 1
		if ver, ok := checkValue(bad, sum); ok && ver == 7 {
			t.Errorf("a flipped bit at byte %d went unnoticed", i)
		}
	}
	if _, ok := checkValue(v[:valueSize-1], sum); ok {
		t.Error("a truncated value passed")
	}
}

func TestInputsReproducible(t *testing.T) {
	sp := *specByName("elastic-churn")
	sp.keys = 1000
	a, err := genInputs(&sp, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := genInputs(&sp, 5)
	if err != nil {
		t.Fatal(err)
	}
	c, err := genInputs(&sp, 6)
	if err != nil {
		t.Fatal(err)
	}
	if a.print != b.print {
		t.Errorf("one seed gave fingerprints %016x and %016x", a.print, b.print)
	}
	if a.print == c.print {
		t.Errorf("seeds 5 and 6 gave the same fingerprint %016x", a.print)
	}
	keys, put := a.streams[0].batch(0)
	seen := map[int32]bool{}
	for _, k := range keys {
		if seen[k] {
			t.Fatalf("key %d twice in one batch", k)
		}
		seen[k] = true
	}
	if len(keys) != sp.batch || !put {
		t.Errorf("first churn batch: %d keys, put=%v; want %d keys, put", len(keys), put, sp.batch)
	}
}

func TestOwnKeys(t *testing.T) {
	sp := *specByName("wire-replicated-write")
	sp.keys = 1000
	in, err := genInputs(&sp, 1)
	if err != nil {
		t.Fatal(err)
	}
	for l, st := range in.streams {
		for _, k := range st.keys {
			if int(k)%sp.loaders != l || int(k) >= sp.keys {
				t.Fatalf("loader %d drew key %d, outside its share", l, k)
			}
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json declares exactly the
// metrics the program reports, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var cfg struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &cfg); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []def) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s [%s], the program %s [%s]",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", cfg.EndToEnd, endToEndDefs)
	same("per_layer", cfg.PerLayer, perLayerDefs)
	if len(cfg.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(cfg.Workloads), len(specs))
	}
	for i, w := range cfg.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("workload %d: BENCHMARK.json has %s, the program %s", i, w.Name, specs[i].name)
		}
	}
}
