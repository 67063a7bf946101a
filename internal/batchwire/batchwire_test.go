package batchwire

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"strings"
	"testing"
)

func requestCases() []struct {
	op    Op
	items []Item
} {
	return []struct {
		op    Op
		items []Item
	}{
		{OpPut, nil},
		{OpPut, []Item{{Key: "k", Value: []byte("v")}}},
		{OpPut, []Item{{Key: "a", Value: []byte("1")}, {Key: "empty"}, {Key: "big", Value: bytes.Repeat([]byte("x"), 300)}}},
		{OpGet, []Item{{Key: "a"}, {Key: "b"}, {Key: strings.Repeat("k", 200)}}},
		{OpDelete, []Item{{Key: "gone"}}},
	}
}

func responseCases() [][]Result {
	return [][]Result{
		{},
		{{Value: []byte("v"), Found: true}},
		{{Found: true}, {}, {Err: "partition frozen for handover"}, {Value: bytes.Repeat([]byte("y"), 300), Found: true}},
	}
}

func TestRequestRoundTrip(t *testing.T) {
	for _, c := range requestCases() {
		prefix := []byte("prefix")
		buf := AppendRequest(prefix, c.op, c.items)
		if !bytes.Equal(buf[:len(prefix)], prefix) {
			t.Fatalf("AppendRequest clobbered the buffer's prefix")
		}
		op, items, err := DecodeRequest(buf[len(prefix):])
		if err != nil {
			t.Fatalf("op %d, %d items: %v", c.op, len(c.items), err)
		}
		if want := c.items; op != c.op || !reflect.DeepEqual(items, append([]Item{}, want...)) {
			t.Fatalf("decoded op %d %+v, want op %d %+v", op, items, c.op, want)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	for _, c := range responseCases() {
		buf := AppendResponse(nil, c)
		results, err := DecodeResponse(buf)
		if err != nil {
			t.Fatalf("%d results: %v", len(c), err)
		}
		if !reflect.DeepEqual(results, c) {
			t.Fatalf("decoded %+v, want %+v", results, c)
		}
	}
}

// TestDecodeAliasesValues checks the no-copy contract: decoded values are
// subslices of the input.
func TestDecodeAliasesValues(t *testing.T) {
	buf := AppendRequest(nil, OpPut, []Item{{Key: "k", Value: []byte("value")}})
	_, items, err := DecodeRequest(buf)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)-1] = 'E'
	if string(items[0].Value) != "valuE" {
		t.Fatalf("value %q does not alias the request buffer", items[0].Value)
	}
}

// TestTruncatedBodies cuts every encoded message at every byte: each
// prefix must fail to decode, and so must the message with one byte
// appended.
func TestTruncatedBodies(t *testing.T) {
	for _, c := range requestCases() {
		buf := AppendRequest(nil, c.op, c.items)
		for cut := 0; cut < len(buf); cut++ {
			if _, _, err := DecodeRequest(buf[:cut]); err == nil {
				t.Fatalf("request cut at %d/%d bytes decoded without error", cut, len(buf))
			}
		}
		if _, _, err := DecodeRequest(append(buf, 0)); err == nil || !strings.Contains(err.Error(), "trailing") {
			t.Fatalf("request with a trailing byte: err = %v, want a trailing-bytes error", err)
		}
	}
	for _, c := range responseCases() {
		buf := AppendResponse(nil, c)
		for cut := 0; cut < len(buf); cut++ {
			if _, err := DecodeResponse(buf[:cut]); err == nil {
				t.Fatalf("response cut at %d/%d bytes decoded without error", cut, len(buf))
			}
		}
		if _, err := DecodeResponse(append(buf, 0)); err == nil || !strings.Contains(err.Error(), "trailing") {
			t.Fatalf("response with a trailing byte: err = %v, want a trailing-bytes error", err)
		}
	}
}

func TestDecodeRejectsBadHeaders(t *testing.T) {
	for name, body := range map[string][]byte{
		"version 0":        {0, byte(OpGet), 0},
		"version 2":        {2, byte(OpGet), 0},
		"op 0":             {Version, 0, 0},
		"op 4":             {Version, 4, 0},
		"huge item count":  binary.AppendUvarint([]byte{Version, byte(OpPut)}, 1<<50),
		"count over input": {Version, byte(OpPut), 2, 1, 'k', 0},
	} {
		if _, _, err := DecodeRequest(body); err == nil {
			t.Errorf("request with %s decoded without error", name)
		}
	}
	for name, body := range map[string][]byte{
		"version 0":         {0, 0},
		"huge result count": binary.AppendUvarint([]byte{Version}, 1<<50),
	} {
		if _, err := DecodeResponse(body); err == nil {
			t.Errorf("response with %s decoded without error", name)
		}
	}
}

// FuzzDecodeBatch asserts that corrupt batch bodies error cleanly: neither
// decoder may panic or over-allocate, and whatever decodes re-encodes to
// the same message.  The committed seeds in testdata/fuzz/FuzzDecodeBatch
// are one request per op and one response, made with AppendRequest and
// AppendResponse.  Run with: go test -fuzz FuzzDecodeBatch ./internal/batchwire
func FuzzDecodeBatch(f *testing.F) {
	for _, c := range requestCases() {
		f.Add(AppendRequest(nil, c.op, c.items))
	}
	for _, c := range responseCases() {
		f.Add(AppendResponse(nil, c))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if op, items, err := DecodeRequest(body); err == nil {
			if len(items) > len(body)/minItemLen {
				t.Fatalf("%d items from %d bytes", len(items), len(body))
			}
			_, again, err := DecodeRequest(AppendRequest(nil, op, items))
			if err != nil || !reflect.DeepEqual(again, items) {
				t.Fatalf("request did not survive a re-encode: %v", err)
			}
		}
		if results, err := DecodeResponse(body); err == nil {
			if len(results) > len(body)/minResultLen {
				t.Fatalf("%d results from %d bytes", len(results), len(body))
			}
			again, err := DecodeResponse(AppendResponse(nil, results))
			if err != nil || !reflect.DeepEqual(again, results) {
				t.Fatalf("response did not survive a re-encode: %v", err)
			}
		}
	})
}
