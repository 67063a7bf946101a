package main

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"dbdht/internal/cluster/transport"
	"dbdht/internal/metrics"
)

// perLayerDefs are the metrics of a traced run, by layer.  Stage times
// (_ms) come from the traced window on the run's last cluster and are
// means per event, so a stage's self time and its children's add up to
// its span.  Counts, rates and ratios come from the untraced windows, as
// do the churn figures vnode_events_per_s and vnode_event_p50_ms.  A
// layer a workload does not use reads 0.
var perLayerDefs = []def{
	{"client.self_ms", "ms"},
	{"server.handler_ms", "ms"},
	{"server.self_ms", "ms"},
	{"server.req_bytes_per_key", "B/key"},
	{"server.resp_bytes_per_key", "B/key"},
	{"cluster.op_ms", "ms"},
	{"cluster.rpcs_per_op", "1/op"},
	{"cluster.rpc_wait_ms", "ms"},
	{"cluster.serve_self_ms", "ms"},
	{"cluster.forwards_per_key", "1/key"},
	{"cluster.requeues_per_key", "1/key"},
	{"cluster.create_vnode_ms", "ms"},
	{"cluster.remove_vnode_ms", "ms"},
	{"cluster.boot_failures", "count"},
	{"transport.frames_binary_per_key", "1/key"},
	{"transport.frames_gob", "count"},
	{"replica.ack_wait_ms", "ms"},
	{"replica.writes_per_key", "1/key"},
	{"replica.lagged", "count"},
	{"replica.repairs", "count"},
	{"replica.ae_pass_ms", "ms"},
	{"wal.wait_ms", "ms"},
	{"wal.bytes_per_user_byte", "B/B"},
	{"wal.appends_per_key", "1/key"},
	{"wal.flushes_per_s", "1/s"},
	{"mig.partition_ms", "ms"},
	{"mig.chunk_ms", "ms"},
	{"mig.keys_moved_per_event", "1/event"},
	{"mig.chunks_per_event", "1/event"},
	{"mig.aborts", "count"},
	{"mig.freeze_timeouts", "count"},
	{"core.group_splits", "count"},
	{"core.sigma_qv", "%"},
	{"go.alloc_bytes_per_key", "B/key"},
	{"go.gc_cycles", "count"},
	{"trace.overhead_ratio", "ratio"},
	{"vnode_events_per_s", "1/s"},
	{"vnode_event_p50_ms", "ms"},
}

// How many of the newest traces collectSpans reads.  The span rings
// (traceBuf per snode) hold whole traces back at least this far.
const (
	maxOpTraces  = 400
	maxMigTraces = 200
)

// counters reads every counter the program exports that a per-layer
// metric uses, by name.
func (b *bench) counters() map[string]float64 {
	st := b.c.StatsTotal()
	ws := b.c.WALStats()
	binEnc, gobEnc, _, _ := transport.CodecCounters()
	lat := b.c.Latencies()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return map[string]float64{
		"forwards": float64(st.Forwards), "requeues": float64(st.Requeues),
		"repl_writes": float64(st.ReplWrites), "repl_lagged": float64(st.ReplLagged),
		"repl_repairs": float64(st.ReplRepairs), "keys_moved": float64(st.KeysMoved),
		"chunks": float64(st.ChunksSent), "mig_aborts": float64(st.MigAborts),
		"freeze_timeouts": float64(st.FreezeTimeouts), "group_splits": float64(st.GroupSplits),
		"wal_bytes": float64(ws.Bytes), "wal_appends": float64(ws.Appends), "wal_flushes": float64(ws.Flushes),
		"frames_binary": float64(binEnc), "frames_gob": float64(gobEnc),
		"batch_rpcs": float64(lat.BatchRPC.Count),
		"ae_s":       lat.AntiEntropyPass.Sum, "ae_passes": float64(lat.AntiEntropyPass.Count),
		"alloc": float64(mem.TotalAlloc), "gcs": float64(mem.NumGC),
	}
}

// layers accumulates a traced run's per-layer measurements: counter
// deltas and work done over every untraced window, and the stage times of
// the traced window.
type layers struct {
	delta     map[string]float64 // counter increments over the untraced windows
	secs      float64
	keys      float64
	written   float64
	userBytes float64
	batches   float64
	events    []float64 // vnode join and leave latencies, ms
	reqBytes  float64
	respBytes float64
	sigma     float64
	lastRate  float64 // keys/s of the last untraced window
	m         map[string]float64
}

func newLayers() *layers {
	return &layers{delta: map[string]float64{}, m: map[string]float64{}}
}

// untraced folds one untraced window, measured from the counter reading
// before, into the totals.
func (ls *layers) untraced(b *bench, before map[string]float64, w *window) {
	for k, v := range b.counters() {
		ls.delta[k] += v - before[k]
	}
	_, req, resp := b.h.take()
	ls.reqBytes += float64(req)
	ls.respBytes += float64(resp)
	ls.secs += w.elapsed.Seconds()
	ls.keys += float64(w.keys)
	ls.written += float64(w.written)
	ls.userBytes += float64(w.userBytes)
	ls.batches += float64(len(w.lat))
	ls.events = append(append(ls.events, w.create...), w.remove...)
	ls.sigma = 100 * metrics.RelStdDev(b.c.Snapshot().VnodeQuotas())
	ls.lastRate = float64(w.keys) / w.elapsed.Seconds()
}

// traced runs the traced window on the current cluster and records its
// stage times.  It returns the operations the window made.
func (ls *layers) traced(b *bench, d time.Duration) tally {
	m := ls.m
	b.c.SetTraceSampling(1)
	before := b.counters()
	w := b.runWindow(d)
	after := b.counters()
	b.c.SetTraceSampling(0)
	handler, _, _ := b.h.take()
	st := b.collectSpans()
	op := &stage{} // client operations of either kind
	for _, name := range []string{"op.mget", "op.mput"} {
		if s := st[name]; s != nil {
			op.n += s.n
			op.total += s.total
		}
	}
	m["client.self_ms"], m["server.handler_ms"], m["server.self_ms"] = 0, 0, 0
	if len(handler) > 0 {
		m["server.handler_ms"] = mean(handler)
		m["client.self_ms"] = mean(w.lat) - m["server.handler_ms"]
		m["server.self_ms"] = m["server.handler_ms"] - op.meanMs()
	}
	m["cluster.op_ms"] = op.meanMs()
	m["cluster.rpc_wait_ms"] = st["batch.rpc"].meanSelfMs()
	m["cluster.serve_self_ms"] = st["batch.serve"].meanSelfMs()
	m["cluster.create_vnode_ms"] = mean(w.create)
	m["cluster.remove_vnode_ms"] = mean(w.remove)
	m["replica.ack_wait_ms"] = st["batch.repl-ack"].meanMs()
	m["replica.ae_pass_ms"] = 1e3 * ratio(after["ae_s"]-before["ae_s"], after["ae_passes"]-before["ae_passes"])
	m["wal.wait_ms"] = st["batch.wal-wait"].meanMs()
	m["mig.partition_ms"] = st["mig.partition"].meanMs()
	m["mig.chunk_ms"] = st["mig.chunk"].meanMs()
	m["trace.overhead_ratio"] = ratio(ls.lastRate, float64(w.keys)/w.elapsed.Seconds())

	fmt.Printf("traced window: %d batches, %d keys, %.3f s; stages (count, mean ms, mean self ms):\n",
		len(w.lat), w.keys, w.elapsed.Seconds())
	for _, name := range sortedStages(st) {
		s := st[name]
		fmt.Printf("  %-20s %7d %10.4f %10.4f\n", name, s.n, s.meanMs(), s.meanSelfMs())
	}
	return w.tally
}

// report fills the per-layer metrics.
func (ls *layers) report(m map[string]float64) {
	for k, v := range ls.m {
		m[k] = v
	}
	dl := ls.delta
	events := float64(len(ls.events))
	m["server.req_bytes_per_key"] = ratio(ls.reqBytes, ls.keys)
	m["server.resp_bytes_per_key"] = ratio(ls.respBytes, ls.keys)
	m["cluster.rpcs_per_op"] = ratio(dl["batch_rpcs"], ls.batches)
	m["cluster.forwards_per_key"] = ratio(dl["forwards"], ls.keys)
	m["cluster.requeues_per_key"] = ratio(dl["requeues"], ls.keys)
	m["transport.frames_binary_per_key"] = ratio(dl["frames_binary"], ls.keys)
	m["transport.frames_gob"] = dl["frames_gob"]
	m["replica.writes_per_key"] = ratio(dl["repl_writes"], ls.written)
	m["replica.lagged"] = dl["repl_lagged"]
	m["replica.repairs"] = dl["repl_repairs"]
	m["wal.bytes_per_user_byte"] = ratio(dl["wal_bytes"], ls.userBytes)
	m["wal.appends_per_key"] = ratio(dl["wal_appends"], ls.written)
	m["wal.flushes_per_s"] = ratio(dl["wal_flushes"], ls.secs)
	m["mig.keys_moved_per_event"] = ratio(dl["keys_moved"], events)
	m["mig.chunks_per_event"] = ratio(dl["chunks"], events)
	m["mig.aborts"] = dl["mig_aborts"]
	m["mig.freeze_timeouts"] = dl["freeze_timeouts"]
	m["core.group_splits"] = dl["group_splits"]
	m["core.sigma_qv"] = ls.sigma
	m["go.alloc_bytes_per_key"] = ratio(dl["alloc"], ls.keys)
	m["go.gc_cycles"] = dl["gcs"]
	m["vnode_events_per_s"] = ratio(events, ls.secs)
	m["vnode_event_p50_ms"], _ = percentile(ls.events, 0.5)
}

// collectSpans reads the newest client-operation and migration traces
// back from the program's span rings and folds them into per-stage
// durations and self times.
func (b *bench) collectSpans() map[string]*stage {
	out := map[string]*stage{}
	var origin time.Time
	nOp, nMig := 0, 0
	for _, ts := range b.c.Traces() { // newest first
		switch {
		case strings.HasPrefix(ts.Name, "op.") && nOp < maxOpTraces:
			nOp++
		case ts.Name == "mig.partition" && nMig < maxMigTraces:
			nMig++
		default:
			continue
		}
		raw := b.c.Trace(ts.TraceID)
		if origin.IsZero() {
			origin = ts.Start
		}
		spans := make([]span, len(raw))
		for i, s := range raw {
			start := s.Start.Sub(origin).Nanoseconds()
			spans[i] = span{id: s.SpanID, parent: s.Parent, name: s.Name, start: start, end: start + s.Duration.Nanoseconds()}
		}
		stages(spans, selfTimes(spans), out)
	}
	return out
}

func sortedStages(st map[string]*stage) []string {
	out := make([]string, 0, len(st))
	for k := range st {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
