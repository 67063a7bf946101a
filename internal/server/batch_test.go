package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dbdht/internal/batchwire"
	"dbdht/internal/server"
)

// batchFormat is one body format of POST /v1/kv:batch, driven at the HTTP
// level so a test sees exactly what a caller sends and gets back.
type batchFormat struct {
	name        string
	contentType string
	encode      func(op batchwire.Op, items []batchwire.Item) []byte
	decode      func(t testing.TB, body []byte, items []batchwire.Item) []server.BatchResult
}

var jsonOps = map[batchwire.Op]string{batchwire.OpPut: "put", batchwire.OpGet: "get", batchwire.OpDelete: "delete"}

var batchFormats = []batchFormat{
	{
		name:        "json",
		contentType: "application/json",
		encode: func(op batchwire.Op, items []batchwire.Item) []byte {
			req := server.BatchRequest{Op: jsonOps[op], Items: make([]server.BatchItem, len(items))}
			for i, it := range items {
				req.Items[i] = server.BatchItem{Key: it.Key, Value: it.Value}
			}
			body, err := json.Marshal(req)
			if err != nil {
				panic(err)
			}
			return body
		},
		decode: func(t testing.TB, body []byte, _ []batchwire.Item) []server.BatchResult {
			var resp server.BatchResponse
			if err := json.Unmarshal(body, &resp); err != nil {
				t.Fatalf("decode JSON batch response %q: %v", body, err)
			}
			return resp.Results
		},
	},
	{
		name:        "binary",
		contentType: batchwire.ContentType,
		encode: func(op batchwire.Op, items []batchwire.Item) []byte {
			return batchwire.AppendRequest(nil, op, items)
		},
		decode: func(t testing.TB, body []byte, items []batchwire.Item) []server.BatchResult {
			res, err := batchwire.DecodeResponse(body)
			if err != nil {
				t.Fatalf("decode binary batch response: %v", err)
			}
			if len(res) != len(items) {
				t.Fatalf("binary batch response has %d results for %d items", len(res), len(items))
			}
			out := make([]server.BatchResult, len(res))
			for i, r := range res {
				out[i] = server.BatchResult{Key: items[i].Key, Found: r.Found, Value: r.Value, Error: r.Err}
			}
			return out
		},
	},
}

// postBatch sends one raw batch body and returns the status, the response
// Content-Type and the body.
func postBatch(t testing.TB, url, contentType string, body []byte) (int, string, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/kv:batch", contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), out
}

// TestBatchFormatParity runs one script of batches through each body
// format, each on a fresh cluster of the same shape, and requires the
// same results from both: hits, misses, empty values, deletes of present
// and absent keys, and per-key errors (a cluster with no vnodes answers
// every key with "no route").
func TestBatchFormatParity(t *testing.T) {
	kv := func(keys ...string) []batchwire.Item {
		items := make([]batchwire.Item, len(keys))
		for i, k := range keys {
			items[i] = batchwire.Item{Key: k}
		}
		return items
	}
	puts := []batchwire.Item{
		{Key: "a", Value: []byte("alpha")},
		{Key: "users/42", Value: []byte{0, 1, 2, 255}},
		{Key: "empty"},
		{Key: "big", Value: bytes.Repeat([]byte("v"), 4096)},
	}
	type step struct {
		op    batchwire.Op
		items []batchwire.Item
	}
	script := []step{
		{batchwire.OpGet, kv("a", "missing")},
		{batchwire.OpPut, puts},
		{batchwire.OpGet, kv("a", "users/42", "empty", "big", "missing")},
		{batchwire.OpDelete, kv("a", "missing", "empty")},
		{batchwire.OpGet, kv("a", "users/42", "empty")},
		{batchwire.OpPut, nil},
	}
	run := func(f batchFormat, vnodes int) [][]server.BatchResult {
		_, ts := boot(t, 2, vnodes)
		var out [][]server.BatchResult
		for _, s := range script {
			code, ct, body := postBatch(t, ts.URL, f.contentType, f.encode(s.op, s.items))
			if code != http.StatusOK {
				t.Fatalf("%s op %d: HTTP %d: %s", f.name, s.op, code, body)
			}
			if ct != f.contentType {
				t.Fatalf("%s op %d: response Content-Type %q, want %q", f.name, s.op, ct, f.contentType)
			}
			out = append(out, f.decode(t, body, s.items))
		}
		return out
	}
	for _, vnodes := range []int{8, 0} {
		want := run(batchFormats[0], vnodes)
		got := run(batchFormats[1], vnodes)
		for i := range script {
			if len(got[i]) != len(want[i]) {
				t.Fatalf("vnodes=%d step %d: binary gave %d results, JSON %d", vnodes, i, len(got[i]), len(want[i]))
			}
			for j := range want[i] {
				w, g := want[i][j], got[i][j]
				if g.Key != w.Key || g.Found != w.Found || !bytes.Equal(g.Value, w.Value) || g.Error != w.Error {
					t.Errorf("vnodes=%d step %d item %d: binary %+v, JSON %+v", vnodes, i, j, g, w)
				}
				if vnodes == 0 && w.Error == "" {
					t.Errorf("step %d item %d: no per-key error on a cluster without vnodes", i, j)
				}
			}
		}
	}
}

// TestBatchBodyErrors covers the batch route's malformed-body answers in
// both formats: an oversized body is 413 as for a single-key PUT, an empty
// key is 400 naming the item (the single-key routes cannot reach that
// key), and bytes after the body are 400, not ignored.
func TestBatchBodyErrors(t *testing.T) {
	_, ts := boot(t, 1, 2)
	huge := []batchwire.Item{{Key: "k", Value: bytes.Repeat([]byte("x"), server.MaxValueBytes)}}
	emptyKey := []batchwire.Item{{Key: "a", Value: []byte("1")}, {Key: "", Value: []byte("a")}}
	valid := []batchwire.Item{{Key: "a"}}
	for _, f := range batchFormats {
		cases := []struct {
			name string
			body []byte
			code int
			msg  string
		}{
			{"oversized", f.encode(batchwire.OpPut, huge), http.StatusRequestEntityTooLarge, "exceeds"},
			{"empty key", f.encode(batchwire.OpPut, emptyKey), http.StatusBadRequest, "item 1: empty key"},
			{"trailing bytes", append(f.encode(batchwire.OpGet, valid), " trailing"...), http.StatusBadRequest, "trailing"},
		}
		for _, c := range cases {
			code, ct, body := postBatch(t, ts.URL, f.contentType, c.body)
			if code != c.code {
				t.Errorf("%s %s: HTTP %d %s, want %d", f.name, c.name, code, body, c.code)
				continue
			}
			var e struct{ Error string }
			if ct != "application/json" || json.Unmarshal(body, &e) != nil || !strings.Contains(e.Error, c.msg) {
				t.Errorf("%s %s: error body %q (%s), want a JSON error containing %q", f.name, c.name, body, ct, c.msg)
			}
		}
	}
	// Nothing was stored under the empty key.
	code, _, body := postBatch(t, ts.URL, "application/json", []byte(`{"op":"get","items":[{"key":"a"}]}`))
	if code != http.StatusOK || strings.Contains(string(body), `"found":true`) {
		t.Fatalf("a rejected batch was applied: HTTP %d %s", code, body)
	}
}

// benchmarkHTTPBatch times one 256-key MGet of 100 B values through the
// handler in format f, counting both sides' encode and decode: the front
// door's own cost over the cluster's.
func benchmarkHTTPBatch(b *testing.B, f batchFormat) {
	_, ts := boot(b, 4, 16)
	h := ts.Config.Handler
	items := make([]batchwire.Item, 256)
	for i := range items {
		items[i] = batchwire.Item{Key: fmt.Sprintf("bench-%04d", i), Value: bytes.Repeat([]byte{byte(i)}, 100)}
	}
	if code, _, body := postBatch(b, ts.URL, f.contentType, f.encode(batchwire.OpPut, items)); code != http.StatusOK {
		b.Fatalf("preload: HTTP %d %s", code, body)
	}
	keys := make([]batchwire.Item, len(items))
	for i, it := range items {
		keys[i] = batchwire.Item{Key: it.Key}
	}
	b.ReportAllocs()
	for b.Loop() {
		req := httptest.NewRequest(http.MethodPost, "/v1/kv:batch", bytes.NewReader(f.encode(batchwire.OpGet, keys)))
		req.Header.Set("Content-Type", f.contentType)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("HTTP %d %s", rec.Code, rec.Body)
		}
		if res := f.decode(b, rec.Body.Bytes(), keys); !res[0].Found {
			b.Fatalf("preloaded key missing: %+v", res[0])
		}
	}
	b.ReportMetric(float64(b.N*len(keys))/b.Elapsed().Seconds(), "keys/s")
}

func BenchmarkHTTPBatchJSON(b *testing.B)   { benchmarkHTTPBatch(b, batchFormats[0]) }
func BenchmarkHTTPBatchBinary(b *testing.B) { benchmarkHTTPBatch(b, batchFormats[1]) }
