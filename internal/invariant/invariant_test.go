package invariant

import (
	"strings"
	"testing"
	"time"
)

// t0 anchors every hand-built history; offsets below are relative to it.
var t0 = time.Unix(1_000_000, 0)

func at(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }

// wr is one write in a hand-built history: its value, and whether and
// when (ms after t0) it was acknowledged.
type wr struct {
	val   string
	acked bool
	ackMs int
}

// rd is one read in a hand-built history: the key, what it returned, and
// when (ms after t0) it started and ended.
type rd struct {
	key     string
	val     string
	found   bool
	startMs int
	endMs   int
}

// history builds a Recorder directly, so acknowledgement and read times
// are exact instead of whatever time.Now returned during a run.
func history(writes map[string][]wr, reads []rd) *Recorder {
	r := NewRecorder()
	for key, ws := range writes {
		h := &keyHist{}
		for i, w := range ws {
			ev := writeEv{sum: ValueSum([]byte(w.val)), start: at(i)}
			if w.acked {
				ev.acked, ev.ackedAt = true, at(w.ackMs)
			}
			h.writes = append(h.writes, ev)
		}
		r.keys[key] = h
	}
	for _, x := range reads {
		ev := readEv{key: x.key, found: x.found, start: at(x.startMs), end: at(x.endMs)}
		if x.found {
			ev.sum = ValueSum([]byte(x.val))
		}
		r.reads = append(r.reads, ev)
	}
	return r
}

func found(v string) ReadBack { return ReadBack{Value: []byte(v), Found: true} }

func TestCheckNoAckedLoss(t *testing.T) {
	for _, tc := range []struct {
		name   string
		writes map[string][]wr
		final  map[string]ReadBack
		pass   bool
		metric string // the count that must be 1 on failure
		detail string
	}{
		{
			name: "last-acked-survives",
			writes: map[string][]wr{
				"a": {{"v1", true, 1}, {"v2", true, 2}},
				"b": {{"x", false, 0}}, // never acked: nothing promised
			},
			final: map[string]ReadBack{"a": found("v2")},
			pass:  true,
		},
		{
			name:   "indeterminate-later-write-landed",
			writes: map[string][]wr{"a": {{"v1", true, 1}, {"v2", false, 0}}},
			final:  map[string]ReadBack{"a": found("v2")},
			pass:   true,
		},
		{
			name:   "acked-write-missing",
			writes: map[string][]wr{"a": {{"v1", true, 1}}},
			final:  map[string]ReadBack{},
			metric: "keys_lost", detail: "missing on read-back",
		},
		{
			name:   "acked-write-read-back-as-miss",
			writes: map[string][]wr{"a": {{"v1", true, 1}}},
			final:  map[string]ReadBack{"a": {Found: false}},
			metric: "keys_lost", detail: "missing on read-back",
		},
		{
			name:   "acked-write-rolled-back",
			writes: map[string][]wr{"a": {{"v1", true, 1}, {"v2", true, 2}}},
			final:  map[string]ReadBack{"a": found("v1")},
			metric: "keys_corrupt", detail: "matches no surviving write",
		},
		{
			name:   "read-back-nobody-wrote",
			writes: map[string][]wr{"a": {{"v1", true, 1}}},
			final:  map[string]ReadBack{"a": found("garbage")},
			metric: "keys_corrupt", detail: "matches no surviving write",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v := history(tc.writes, nil).CheckNoAckedLoss(tc.final)
			if v.Pass != tc.pass {
				t.Fatalf("Pass = %v, want %v (%s)", v.Pass, tc.pass, v.Detail)
			}
			if tc.pass {
				return
			}
			if v.Metrics[tc.metric] != 1 {
				t.Errorf("%s = %v, want 1 (metrics %v)", tc.metric, v.Metrics[tc.metric], v.Metrics)
			}
			if !strings.Contains(v.Detail, tc.detail) {
				t.Errorf("detail %q does not contain %q", v.Detail, tc.detail)
			}
		})
	}
}

func TestCheckBoundedStaleness(t *testing.T) {
	const bound = 100 * time.Millisecond
	writes := map[string][]wr{
		// v1 acked at 10ms, superseded by v2 acked at 1000ms.
		"a": {{"v1", true, 10}, {"v2", true, 1000}},
	}
	for _, tc := range []struct {
		name   string
		reads  []rd
		pass   bool
		metric string
		detail string
	}{
		{
			name: "fresh-and-within-bound",
			reads: []rd{
				{"a", "v2", true, 1200, 1201},  // the latest value
				{"a", "v1", true, 1050, 1051},  // superseded 50ms earlier
				{"a", "", false, 5, 6},         // miss before any ack
				{"other", "x", true, 500, 501}, // key this history never wrote
			},
			pass: true,
		},
		{
			name:   "phantom-read",
			reads:  []rd{{"a", "ghost", true, 1200, 1201}},
			metric: "reads_phantom", detail: "no write produced",
		},
		{
			name:   "read-staler-than-bound",
			reads:  []rd{{"a", "v1", true, 1500, 1501}}, // superseded 500ms earlier
			metric: "reads_stale", detail: "superseded",
		},
		{
			name:   "miss-long-after-ack",
			reads:  []rd{{"a", "", false, 500, 501}}, // v1 acked 490ms earlier
			metric: "reads_stale", detail: "miss",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v := history(writes, tc.reads).CheckBoundedStaleness(bound)
			if v.Pass != tc.pass {
				t.Fatalf("Pass = %v, want %v (%s)", v.Pass, tc.pass, v.Detail)
			}
			if int(v.Metrics["reads_checked"]) != countOwnKeys(tc.reads) {
				t.Errorf("reads_checked = %v, want %d", v.Metrics["reads_checked"], countOwnKeys(tc.reads))
			}
			if tc.pass {
				if v.Metrics["worst_lag_ms"] != 50 {
					t.Errorf("worst_lag_ms = %v, want 50", v.Metrics["worst_lag_ms"])
				}
				return
			}
			if v.Metrics[tc.metric] != 1 {
				t.Errorf("%s = %v, want 1 (metrics %v)", tc.metric, v.Metrics[tc.metric], v.Metrics)
			}
			if !strings.Contains(v.Detail, tc.detail) {
				t.Errorf("detail %q does not contain %q", v.Detail, tc.detail)
			}
		})
	}
}

// countOwnKeys counts the reads of key "a", the only key the staleness
// history wrote.
func countOwnKeys(reads []rd) int {
	n := 0
	for _, r := range reads {
		if r.key == "a" {
			n++
		}
	}
	return n
}

func TestCheckConvergence(t *testing.T) {
	for _, tc := range []struct {
		name   string
		probe  func(call int) (int64, float64)
		pass   bool
		detail string
	}{
		{
			name:  "quiet-and-balanced",
			probe: func(int) (int64, float64) { return 7, 1.5 },
			pass:  true,
		},
		{
			name:  "repairs-stop-after-a-while",
			probe: func(call int) (int64, float64) { return int64(min(call, 5)), 1.5 },
			pass:  true,
		},
		{
			name:   "never-stops-repairing",
			probe:  func(call int) (int64, float64) { return int64(call), 1.5 },
			detail: "still repairing",
		},
		{
			name:   "quota-deviation-never-settles",
			probe:  func(int) (int64, float64) { return 7, 40 },
			detail: "40.00%",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			calls := 0
			probe := func() (int64, float64) {
				calls++
				return tc.probe(calls)
			}
			v := CheckConvergence(time.Now(), 200*time.Millisecond, time.Millisecond, 3, 10, probe)
			if v.Pass != tc.pass {
				t.Fatalf("Pass = %v, want %v (%s)", v.Pass, tc.pass, v.Detail)
			}
			if tc.pass {
				if v.Metrics["convergence_ms"] < 0 {
					t.Errorf("passing verdict reports convergence_ms %v", v.Metrics["convergence_ms"])
				}
				return
			}
			if v.Metrics["convergence_ms"] != -1 {
				t.Errorf("failing verdict reports convergence_ms %v, want -1", v.Metrics["convergence_ms"])
			}
			if !strings.Contains(v.Detail, tc.detail) {
				t.Errorf("detail %q does not contain %q", v.Detail, tc.detail)
			}
		})
	}
}

// TestRecorderCounts drives the public recording API: only keys with an
// acked write are read back, in sorted order.
func TestRecorderCounts(t *testing.T) {
	r := NewRecorder()
	now := time.Now()
	r.RecordWrite("b", []byte("1"), now, true)
	r.RecordWrite("a", []byte("1"), now, false)
	r.RecordWrite("a", []byte("2"), now, true)
	r.RecordWrite("c", []byte("1"), now, false)
	r.RecordRead("a", []byte("2"), true, now, now)
	if got := r.AckedKeys(); strings.Join(got, ",") != "a,b" {
		t.Fatalf("AckedKeys = %v, want [a b]", got)
	}
	if w, a, rd := r.Counts(); w != 4 || a != 2 || rd != 1 {
		t.Fatalf("Counts = (%d, %d, %d), want (4, 2, 1)", w, a, rd)
	}
	if v := r.CheckNoAckedLoss(map[string]ReadBack{"a": found("2"), "b": found("1")}); !v.Pass {
		t.Fatalf("recorded history fails: %s", v.Detail)
	}
}
