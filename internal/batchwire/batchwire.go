// Package batchwire is the binary body of POST /v1/kv:batch: the format
// the client sends by default and the server answers in kind.  It reuses
// the cluster wire's primitives (uvarint lengths, length-prefixed strings
// and bytes), so a batch costs the front door what it costs the cluster.
//
//	request:  version | op | uvarint n | n × (string key, bytes value)
//	response: version | uvarint n | n × (bytes value, bool found, string err)
//
// Responses are parallel to requests, so they carry no keys.  Errors other
// than per-key ones stay JSON ({"error": …}) in both formats.  docs/WIRE.md
// specifies the layout.
package batchwire

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"dbdht/internal/cluster/transport"
)

// ContentType selects this format on a request; a response in this format
// carries it too.
const ContentType = "application/x-dbdht-batch"

// Version is the first byte of every message.  A change to the layout
// takes a new version, and a decoder refuses versions it does not know.
const Version byte = 1

// Op is the verb applied to every item of a request.
type Op byte

// The three batch verbs, numbered as on the wire.
const (
	OpPut    Op = 1
	OpGet    Op = 2
	OpDelete Op = 3
)

// Item is one key of a request and, for OpPut, its value.
type Item struct {
	Key   string
	Value []byte
}

// Result is one key's outcome in a response; Err is empty on success.
type Result struct {
	Value []byte
	Found bool
	Err   string
}

// Minimum encoded sizes of one item and one result (every length prefix
// takes at least one byte), which bound the counts a decoder accepts.
const (
	minItemLen   = 2
	minResultLen = 3
)

// AppendRequest appends a request applying op to items.  A get or delete
// sends each item's value too (normally empty), so every op has one
// layout.
func AppendRequest(buf []byte, op Op, items []Item) []byte {
	size := 2 + uvarintLen(len(items))
	for _, it := range items {
		size += uvarintLen(len(it.Key)) + len(it.Key) + uvarintLen(len(it.Value)) + len(it.Value)
	}
	buf = slices.Grow(buf, size)
	buf = append(buf, Version, byte(op))
	buf = transport.AppendUvarint(buf, uint64(len(items)))
	for _, it := range items {
		buf = transport.AppendString(buf, it.Key)
		buf = transport.AppendBytes(buf, it.Value)
	}
	return buf
}

// DecodeRequest decodes a request.  Keys are copied; values are subslices
// of data, so the caller must own data and never reuse it while a value
// is live.  A zero-length value decodes as nil.  Truncated, corrupt or
// trailing bytes and an unknown version or op are errors, never panics.
func DecodeRequest(data []byte) (Op, []Item, error) {
	if len(data) < 2 {
		return 0, nil, errors.New("batchwire: request shorter than its header")
	}
	if err := checkVersion(data[0]); err != nil {
		return 0, nil, err
	}
	op := Op(data[1])
	if op < OpPut || op > OpDelete {
		return 0, nil, fmt.Errorf("batchwire: unknown op %d (want 1 put, 2 get or 3 delete)", op)
	}
	r := transport.NewWireReader(data[2:])
	items := make([]Item, r.ArrayLen(minItemLen))
	for i := range items {
		items[i] = Item{Key: r.String(), Value: r.View()}
	}
	if err := finish(r, "request"); err != nil {
		return 0, nil, err
	}
	return op, items, nil
}

// AppendResponse appends a response carrying results.
func AppendResponse(buf []byte, results []Result) []byte {
	size := 1 + uvarintLen(len(results))
	for _, res := range results {
		size += uvarintLen(len(res.Value)) + len(res.Value) + 1 + uvarintLen(len(res.Err)) + len(res.Err)
	}
	buf = slices.Grow(buf, size)
	buf = append(buf, Version)
	buf = transport.AppendUvarint(buf, uint64(len(results)))
	for _, res := range results {
		buf = transport.AppendBytes(buf, res.Value)
		buf = transport.AppendBool(buf, res.Found)
		buf = transport.AppendString(buf, res.Err)
	}
	return buf
}

// DecodeResponse decodes a response.  Values are subslices of data, as in
// DecodeRequest; error strings are copied.
func DecodeResponse(data []byte) ([]Result, error) {
	if len(data) < 1 {
		return nil, errors.New("batchwire: empty response")
	}
	if err := checkVersion(data[0]); err != nil {
		return nil, err
	}
	r := transport.NewWireReader(data[1:])
	results := make([]Result, r.ArrayLen(minResultLen))
	for i := range results {
		results[i] = Result{Value: r.View(), Found: r.Bool(), Err: r.String()}
	}
	if err := finish(r, "response"); err != nil {
		return nil, err
	}
	return results, nil
}

func checkVersion(v byte) error {
	if v != Version {
		return fmt.Errorf("batchwire: version %d, want %d", v, Version)
	}
	return nil
}

// finish reports the reader's sticky error, or bytes left after the last
// field.
func finish(r *transport.WireReader, what string) error {
	if err := r.Err(); err != nil {
		return fmt.Errorf("batchwire: %s: %w", what, err)
	}
	if n := r.Len(); n != 0 {
		return fmt.Errorf("batchwire: %d trailing bytes after the %s", n, what)
	}
	return nil
}

// uvarintLen is the encoded size of n as a uvarint.
func uvarintLen(n int) int { return (bits.Len64(uint64(n)|1) + 6) / 7 }
