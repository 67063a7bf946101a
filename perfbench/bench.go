package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"dbdht"
	"dbdht/client"
	"dbdht/internal/server"
)

const (
	// setups is how many clusters a run boots, preloads and measures, one
	// after another; each serves a third of the measured time, and the
	// end-to-end metrics are medians over them.
	setups = 3
	// maxBoots bounds the boot attempts of one setup.  A failed boot is
	// reported and retried, never hidden.
	maxBoots = 5
	// warmup precedes every run's measured windows.
	warmup = time.Second
	// readBackBatch is the MGet size of the final read-back.
	readBackBatch = 4096
	// maxReports caps the wrong outputs printed in detail.
	maxReports = 10
)

// bench is one run: the inputs, the cluster under test, and the
// client-side history the correctness checks need.
type bench struct {
	sp       *spec
	in       *inputs
	seed     int64
	walRoot  string // this run's WAL files
	walDir   string // the WAL of the cluster being set up or measured
	traceBuf int

	c   *dbdht.Cluster
	ids []dbdht.SnodeID

	// Front door.
	srv     *http.Server
	srvDone chan error
	cl      *client.Client
	h       *timedHandler // nil unless the run is traced

	next []int    // per loader: next batch of its stream
	vers []uint64 // per loader: last version it wrote
	pick int      // churn: next entry of in.picks

	// With sp.exact(), per key: the version of its last acknowledged write,
	// the version of a later write whose outcome is unknown (0 = none),
	// and whether the run wrote it (the final read-back covers those).
	last    []uint64
	alt     []uint64
	written []bool

	bootFailures int
	reports      atomic.Int32
}

// tally counts operations: keys of batches, vnode joins and leaves, and
// keys read back.  wrong counts the failures that are wrong outputs
// (a miss, a corrupt or stale value, a lost write).
type tally struct {
	attempted, failed, wrong int64
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.wrong += o.wrong
}

// window is what one timed stretch of closed-loop load did.
type window struct {
	tally
	elapsed   time.Duration
	lat       []float64 // client-observed batch latency, ms
	keys      int64     // keys whose operation succeeded
	written   int64     // of which writes
	userBytes int64     // key and value bytes of the successful writes
	create    []float64 // churn: CreateVnode latency, ms
	remove    []float64 // churn: RemoveVnode latency, ms
}

func (w *window) merge(o *window) {
	w.tally.add(o.tally)
	w.lat = append(w.lat, o.lat...)
	w.keys += o.keys
	w.written += o.written
	w.userBytes += o.userBytes
	w.create = append(w.create, o.create...)
	w.remove = append(w.remove, o.remove...)
}

func (w *window) events() int { return len(w.create) + len(w.remove) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func newBench(sp *spec, in *inputs, seed int64, workdir string, traced bool) *bench {
	b := &bench{
		sp: sp, in: in, seed: seed,
		walRoot: filepath.Join(workdir, fmt.Sprintf("wal-%d", os.Getpid())),
		next:    make([]int, sp.loaders),
		vers:    make([]uint64, sp.loaders),
	}
	if traced {
		// Large enough that the newest few hundred traces are whole when
		// they are collected (see collectSpans).
		b.traceBuf = 8192
		b.h = &timedHandler{}
	}
	for l := range b.vers {
		b.vers[l] = 1 // the preload writes version 1
	}
	if sp.exact() {
		b.last = make([]uint64, sp.keys)
		b.alt = make([]uint64, sp.keys)
		b.written = make([]bool, sp.keys)
		for k := range b.last {
			b.last[k] = 1
		}
	}
	return b
}

// report prints one wrong output in detail, up to maxReports per run.
func (b *bench) report(format string, args ...any) {
	if b.reports.Add(1) <= maxReports {
		fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	}
}

// --- set-up ---

// boot starts the workload's cluster: snodes snodes, then vnodes vnodes
// spread round-robin over them.
func (b *bench) boot(dir string) (*dbdht.Cluster, error) {
	o := dbdht.ClusterOptions{
		Pmin: pmin, Vmin: vmin, Seed: b.seed,
		Replicas: b.sp.replicas, TraceBuffer: b.traceBuf,
	}
	if b.sp.wal {
		o.Durability = dbdht.DurabilityConfig{Dir: dir, Fsync: dbdht.FsyncOff, SnapshotInterval: -1}
	}
	var (
		c   *dbdht.Cluster
		err error
	)
	if b.sp.tcp {
		c, err = dbdht.NewClusterTCP(o, "127.0.0.1")
	} else {
		c, err = dbdht.NewCluster(o)
	}
	if err != nil {
		return nil, err
	}
	for i := 0; i < snodes; i++ {
		if _, err := c.AddSnode(); err != nil {
			c.Close()
			return nil, fmt.Errorf("add snode: %w", err)
		}
	}
	ids := c.Snodes()
	for i := 0; i < vnodes; i++ {
		at := ids[i%len(ids)]
		if _, _, err := c.CreateVnode(at); err != nil {
			c.Close()
			return nil, fmt.Errorf("create vnode %d at snode %d: %w", i, at, err)
		}
	}
	return c, nil
}

// start boots a cluster, retrying failed boots, preloads the keyspace
// and, for the front door, serves it over HTTP.  The time returned
// covers every boot attempt and the preload.
func (b *bench) start(k int) (time.Duration, error) {
	begin := time.Now()
	for attempt := 1; ; attempt++ {
		var err error
		b.walDir = filepath.Join(b.walRoot, fmt.Sprintf("setup%d-boot%d", k, attempt))
		b.c, err = b.boot(b.walDir)
		if err == nil {
			break
		}
		b.bootFailures++
		fmt.Fprintf(os.Stderr, "perfbench: boot failure (setup %d, attempt %d): %v\n", k, attempt, err)
		b.removeWAL()
		if attempt == maxBoots {
			return 0, fmt.Errorf("setup %d: %d boots failed", k, maxBoots)
		}
	}
	if err := b.preload(); err != nil {
		b.stop()
		return 0, fmt.Errorf("setup %d: preload: %w", k, err)
	}
	took := time.Since(begin)
	b.ids = b.c.Snodes()
	if b.sp.exact() {
		for i := range b.last {
			b.last[i], b.alt[i], b.written[i] = 1, 0, false
		}
	}
	if b.sp.http {
		if err := b.startFrontDoor(); err != nil {
			b.stop()
			return 0, err
		}
	}
	return took, nil
}

// preload writes version 1 of every key, from sp.loaders goroutines.
func (b *bench) preload() error {
	errs := make([]error, b.sp.loaders)
	var wg sync.WaitGroup
	for l := 0; l < b.sp.loaders; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			lo, hi := l*b.sp.keys/b.sp.loaders, (l+1)*b.sp.keys/b.sp.loaders
			for off := lo; off < hi; off += b.sp.batch {
				end := min(off+b.sp.batch, hi)
				vals := make([]byte, (end-off)*valueSize)
				items := make([]dbdht.KV, end-off)
				for k := off; k < end; k++ {
					v := vals[(k-off)*valueSize : (k-off+1)*valueSize]
					putValue(v, b.in.sums[k], 1)
					items[k-off] = dbdht.KV{Key: b.in.names[k], Value: v}
				}
				res, err := b.c.MPut(items)
				if err == nil && len(res) != len(items) {
					err = fmt.Errorf("%d results for %d keys", len(res), len(items))
				}
				for _, r := range res {
					if err == nil && !r.OK() {
						err = fmt.Errorf("put %s: %s", r.Key, r.Err)
					}
				}
				if err != nil {
					errs[l] = err
					return
				}
			}
		}(l)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// startFrontDoor serves the cluster over loopback HTTP and connects the
// Go client to it.
func (b *bench) startFrontDoor() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	var h http.Handler = server.New(b.c).Handler()
	if b.h != nil {
		b.h.next = h
		h = b.h
	}
	b.srv = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	b.srvDone = make(chan error, 1)
	go func() { b.srvDone <- b.srv.Serve(ln) }()
	b.cl = client.New("http://" + ln.Addr().String())
	return nil
}

// stop shuts the front door and the cluster down and deletes the
// cluster's WAL.
func (b *bench) stop() {
	if b.srv != nil {
		_ = b.srv.Close() // Serve's error below says how it ended
		if err := <-b.srvDone; !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "perfbench: http server: %v\n", err)
		}
		b.srv, b.cl = nil, nil
	}
	if b.c != nil {
		b.c.Close()
		b.c = nil
	}
	b.removeWAL()
}

func (b *bench) removeWAL() {
	if err := os.RemoveAll(b.walDir); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	}
}

// --- load ---

// runWindow drives the closed loops for d and returns what they did.
// Every loader finishes its batch in flight; the window's length runs
// until the last one has.
func (b *bench) runWindow(d time.Duration) *window {
	start := time.Now()
	deadline := start.Add(d)
	parts := make([]*window, b.sp.loaders+1)
	for i := range parts {
		parts[i] = &window{}
	}
	var wg sync.WaitGroup
	for l := 0; l < b.sp.loaders; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				b.step(l, parts[l])
			}
		}(l)
	}
	if b.sp.churn {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				b.churnStep(parts[b.sp.loaders])
			}
		}()
	}
	wg.Wait()
	w := &window{elapsed: time.Since(start)}
	for _, p := range parts {
		w.merge(p)
	}
	return w
}

// step issues loader l's next batch and records its latency.
func (b *bench) step(l int, w *window) {
	keys, put := b.in.streams[l].batch(b.next[l])
	b.next[l]++
	var t0, t1 time.Time
	if put {
		t0, t1 = b.put(l, keys, w)
	} else {
		t0, t1 = b.get(keys, w)
	}
	w.lat = append(w.lat, ms(t1.Sub(t0)))
}

// put and get issue one batch and check its results.  They return when
// the call started and returned; the checks are not part of the latency.
func (b *bench) put(l int, keys []int32, w *window) (t0, t1 time.Time) {
	vals := make([]byte, len(keys)*valueSize)
	vers := make([]uint64, len(keys))
	for j, k := range keys {
		b.vers[l]++
		vers[j] = b.vers[l]
		putValue(vals[j*valueSize:(j+1)*valueSize], b.in.sums[k], vers[j])
	}
	val := func(j int) []byte { return vals[j*valueSize : (j+1)*valueSize] }
	ok := make([]bool, len(keys))
	if b.sp.http {
		items := make([]client.Item, len(keys))
		for j, k := range keys {
			items[j] = client.Item{Key: b.in.names[k], Value: val(j)}
		}
		t0 = time.Now()
		res, err := b.cl.MPut(context.Background(), items)
		t1 = time.Now()
		for j := range ok {
			ok[j] = err == nil && len(res) == len(keys) && res[j].OK()
		}
	} else {
		items := make([]dbdht.KV, len(keys))
		for j, k := range keys {
			items[j] = dbdht.KV{Key: b.in.names[k], Value: val(j)}
		}
		t0 = time.Now()
		res, err := b.c.MPut(items)
		t1 = time.Now()
		for j := range ok {
			ok[j] = err == nil && len(res) == len(keys) && res[j].OK()
		}
	}
	for j, k := range keys {
		b.wrote(k, vers[j], ok[j], w)
	}
	return t0, t1
}

func (b *bench) get(keys []int32, w *window) (t0, t1 time.Time) {
	names := make([]string, len(keys))
	for j, k := range keys {
		names[j] = b.in.names[k]
	}
	if b.sp.http {
		t0 = time.Now()
		res, err := b.cl.MGet(context.Background(), names)
		t1 = time.Now()
		for j, k := range keys {
			ok := err == nil && len(res) == len(keys) && res[j].OK()
			var r client.Result
			if ok {
				r = res[j]
			}
			b.checkRead(k, ok, r.Found, r.Value, &w.tally, &w.keys)
		}
		return t0, t1
	}
	t0 = time.Now()
	res, err := b.c.MGet(names)
	t1 = time.Now()
	b.checkReads(keys, res, err, &w.tally, &w.keys)
	return t0, t1
}

// wrote records the outcome of one key's write.
func (b *bench) wrote(k int32, ver uint64, ok bool, w *window) {
	w.attempted++
	if b.sp.exact() {
		b.written[k] = true
	}
	if !ok {
		w.failed++
		if b.sp.exact() {
			b.alt[k] = ver // it may or may not have landed
		}
		return
	}
	w.keys++
	w.written++
	w.userBytes += int64(len(b.in.names[k]) + valueSize)
	if b.sp.exact() {
		b.last[k], b.alt[k] = ver, 0
	}
}

// checkReads checks the results of an in-process MGet of keys.
func (b *bench) checkReads(keys []int32, res []dbdht.BatchResult, err error, t *tally, good *int64) {
	for j, k := range keys {
		ok := err == nil && len(res) == len(keys) && res[j].OK()
		var r dbdht.BatchResult
		if ok {
			r = res[j]
		}
		b.checkRead(k, ok, r.Found, r.Value, t, good)
	}
}

// checkRead checks one key's read: it must succeed, find the key, carry
// the key's checksum and, with sp.exact(), the version of the key's last
// acknowledged write.
func (b *bench) checkRead(k int32, ok, found bool, value []byte, t *tally, good *int64) {
	t.attempted++
	if !ok {
		t.failed++
		return
	}
	name := b.in.names[k]
	if !found {
		t.failed++
		t.wrong++
		b.report("read %s: not found", name)
		return
	}
	ver, intact := checkValue(value, b.in.sums[k])
	if !intact {
		t.failed++
		t.wrong++
		b.report("read %s: value is not one the benchmark wrote for this key", name)
		return
	}
	if b.sp.exact() {
		switch {
		case ver == b.last[k]:
		case ver != 0 && ver == b.alt[k]:
			b.last[k], b.alt[k] = ver, 0
		default:
			t.failed++
			t.wrong++
			b.report("read %s: version %d, last acknowledged write was version %d", name, ver, b.last[k])
			return
		}
	}
	*good++
}

// churnStep joins one vnode at a seeded-random snode and removes it again.
func (b *bench) churnStep(w *window) {
	at := b.ids[b.in.picks[b.pick%len(b.in.picks)]]
	b.pick++
	w.attempted++
	t := time.Now()
	name, _, err := b.c.CreateVnode(at)
	if err != nil {
		w.failed++
		fmt.Fprintf(os.Stderr, "perfbench: join at snode %d: %v\n", at, err)
		return
	}
	w.create = append(w.create, ms(time.Since(t)))
	w.attempted++
	t = time.Now()
	if err := b.c.RemoveVnode(name); err != nil {
		w.failed++
		fmt.Fprintf(os.Stderr, "perfbench: leave of %v: %v\n", name, err)
		return
	}
	w.remove = append(w.remove, ms(time.Since(t)))
}

// readBack reads every key the run wrote and checks it holds the last
// acknowledged write: an acknowledged write that is gone is a loss.
func (b *bench) readBack() tally {
	var keys []int32
	for k, w := range b.written {
		if w {
			keys = append(keys, int32(k))
		}
	}
	var t tally
	var good int64
	for off := 0; off < len(keys); off += readBackBatch {
		chunk := keys[off:min(off+readBackBatch, len(keys))]
		names := make([]string, len(chunk))
		for j, k := range chunk {
			names[j] = b.in.names[k]
		}
		res, err := b.c.MGet(names)
		b.checkReads(chunk, res, err, &t, &good)
	}
	return t
}

// --- the benchmark's own spans around the front door ---

// timedHandler wraps server.Handler() in traced runs: it times each
// ServeHTTP call and counts request and response bytes.
type timedHandler struct {
	next http.Handler

	mu        sync.Mutex
	durs      []float64 // ServeHTTP time, ms; guarded by mu
	reqBytes  int64     // guarded by mu
	respBytes int64     // guarded by mu
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	cw := &countingWriter{ResponseWriter: w}
	t := time.Now()
	h.next.ServeHTTP(cw, r)
	d := time.Since(t)
	h.mu.Lock()
	h.durs = append(h.durs, ms(d))
	h.reqBytes += max(r.ContentLength, 0)
	h.respBytes += cw.n
	h.mu.Unlock()
}

// take returns and resets what was recorded since the last take.
func (h *timedHandler) take() (durs []float64, reqBytes, respBytes int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	durs, reqBytes, respBytes = h.durs, h.reqBytes, h.respBytes
	h.durs, h.reqBytes, h.respBytes = nil, 0, 0
	return durs, reqBytes, respBytes
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}
