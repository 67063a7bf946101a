package transport

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"
)

// fuzzMsg is a binary-path payload covering every field shape the helpers
// support, registered under a test-only tag.
type fuzzMsg struct {
	U   uint64
	I   int64
	B   bool
	Bs  []byte
	S   string
	Seq []uint64
}

const fuzzTag uint16 = 0x7e57

func (m fuzzMsg) WireTag() uint16 { return fuzzTag }

func (m fuzzMsg) AppendWire(buf []byte) []byte {
	buf = AppendUvarint(buf, m.U)
	buf = AppendVarint(buf, m.I)
	buf = AppendBool(buf, m.B)
	buf = AppendBytes(buf, m.Bs)
	buf = AppendString(buf, m.S)
	buf = AppendUvarint(buf, uint64(len(m.Seq)))
	for _, v := range m.Seq {
		buf = AppendUvarint(buf, v)
	}
	return buf
}

func init() {
	RegisterWire(fuzzTag, func(r *WireReader) (any, error) {
		var m fuzzMsg
		m.U = r.Uvarint()
		m.I = r.Varint()
		m.B = r.Bool()
		m.Bs = r.Bytes()
		m.S = r.String()
		if n := r.ArrayLen(1); n > 0 {
			m.Seq = make([]uint64, n)
			for i := range m.Seq {
				m.Seq[i] = r.Uvarint()
			}
		}
		return m, r.Err()
	})
}

func encodeFrame(t testing.TB, env Envelope) []byte {
	t.Helper()
	frame, err := AppendFrame(nil, env)
	if err != nil {
		t.Fatalf("AppendFrame: %v", err)
	}
	if got := binary.BigEndian.Uint32(frame); int(got) != len(frame)-frameHeaderLen {
		t.Fatalf("length prefix %d, body is %d bytes", got, len(frame)-frameHeaderLen)
	}
	return frame
}

func TestFrameRoundTripBinary(t *testing.T) {
	want := fuzzMsg{U: 9000, I: -42, B: true, Bs: []byte{1, 2, 3}, S: "hello", Seq: []uint64{7, 8}}
	frame := encodeFrame(t, Envelope{From: -1, To: 12, Msg: want})
	env, err := DecodeFrame(frame[frameHeaderLen:])
	if err != nil {
		t.Fatal(err)
	}
	if env.From != -1 || env.To != 12 {
		t.Fatalf("envelope header mangled: %+v", env)
	}
	got, ok := env.Msg.(fuzzMsg)
	if !ok {
		t.Fatalf("decoded %T, want fuzzMsg", env.Msg)
	}
	if got.U != want.U || got.I != want.I || got.B != want.B ||
		string(got.Bs) != string(want.Bs) || got.S != want.S || len(got.Seq) != 2 {
		t.Fatalf("round trip: got %+v, want %+v", got, want)
	}
}

func TestAppendFrameNamesUnencodableType(t *testing.T) {
	type noCodec struct{ X int }
	buf := []byte("prefix")
	out, err := AppendFrame(buf, Envelope{From: 1, To: 2, Msg: noCodec{X: 1}})
	if err == nil {
		t.Fatal("a payload without a wire codec must not encode")
	}
	if !strings.Contains(err.Error(), "noCodec") {
		t.Fatalf("error %q does not name the payload type", err)
	}
	if string(out) != "prefix" {
		t.Fatalf("failed encode changed the buffer: %q", out)
	}
}

func TestDecodeFrameVersionMismatch(t *testing.T) {
	frame := encodeFrame(t, Envelope{From: 1, To: 2, Msg: fuzzMsg{U: 1}})
	body := append([]byte(nil), frame[frameHeaderLen:]...)
	body[0] = wireVersion + 1
	if _, err := DecodeFrame(body); err == nil {
		t.Fatal("future wire version must fail loudly, not decode")
	}
}

func TestDecodeFrameUnknownTag(t *testing.T) {
	var body []byte
	body = append(body, wireVersion, 0) // no flags
	body = binary.AppendVarint(body, 1)
	body = binary.AppendVarint(body, 2)
	body = binary.AppendUvarint(body, 0xfffe) // never registered
	if _, err := DecodeFrame(body); err == nil {
		t.Fatal("unknown wire tag must error")
	}
}

func TestFrameRoundTripTraceContext(t *testing.T) {
	tr := TraceContext{TraceID: 0xfeedface12345678, SpanID: 42, Sampled: true}
	// Binary path: trace context rides the frame header.
	frame := encodeFrame(t, Envelope{From: -1, To: 3, Trace: tr, Msg: fuzzMsg{U: 7}})
	env, err := DecodeFrame(frame[frameHeaderLen:])
	if err != nil {
		t.Fatal(err)
	}
	if env.Trace != tr {
		t.Fatalf("binary trace round trip: got %+v, want %+v", env.Trace, tr)
	}
	if !env.Trace.Active() {
		t.Fatal("sampled trace context must be Active after decode")
	}
	// An untraced envelope pays exactly one flags byte and decodes to the
	// zero context.
	traced := encodeFrame(t, Envelope{From: -1, To: 3, Trace: tr, Msg: fuzzMsg{U: 7}})
	plain := encodeFrame(t, Envelope{From: -1, To: 3, Msg: fuzzMsg{U: 7}})
	if len(traced) <= len(plain) {
		t.Fatalf("traced frame (%d bytes) not larger than plain (%d)", len(traced), len(plain))
	}
	if env, err = DecodeFrame(plain[frameHeaderLen:]); err != nil {
		t.Fatal(err)
	}
	if env.Trace != (TraceContext{}) {
		t.Fatalf("plain frame decoded a trace context: %+v", env.Trace)
	}
}

func TestDecodeFrameOldVersionRejected(t *testing.T) {
	// Frames from pre-upgrade peers: v1 (version, format) and v3
	// (version, format, flags).  The version check must reject both with
	// the mixed-cluster error before misreading the format byte as flags.
	for _, hdr := range [][]byte{
		{1, 1},    // v1: version, binary format
		{3, 1, 0}, // v3: version, binary format, no flags
	} {
		body := append([]byte(nil), hdr...)
		body = binary.AppendVarint(body, -1)
		body = binary.AppendVarint(body, 2)
		body = binary.AppendUvarint(body, uint64(fuzzTag))
		body = fuzzMsg{U: 1}.AppendWire(body)
		_, err := DecodeFrame(body)
		if err == nil {
			t.Fatalf("v%d frame must be rejected, not decoded", hdr[0])
		}
		if want := fmt.Sprintf("wire version %d", hdr[0]); !strings.Contains(err.Error(), want) {
			t.Fatalf("rejection error %q does not name the peer's version", err)
		}
	}
}

func TestDecodeFrameBadTraceHeader(t *testing.T) {
	// Truncated trace context: flags promise trace IDs the body lacks.
	if _, err := DecodeFrame([]byte{wireVersion, flagTrace | flagSampled, 0x80}); err == nil {
		t.Fatal("truncated trace context must error")
	}
	// Unknown flag bits are corruption, not extension (a frame-level
	// change bumps the version instead).
	if _, err := DecodeFrame([]byte{wireVersion, 0x80}); err == nil {
		t.Fatal("unknown frame flags must error")
	}
}

func TestDecodeFrameTruncated(t *testing.T) {
	frame := encodeFrame(t, Envelope{From: -1, To: 9, Msg: fuzzMsg{
		U: 1 << 40, I: -1 << 40, B: true, Bs: make([]byte, 100), S: "truncate-me", Seq: []uint64{1, 2, 3},
	}})
	body := frame[frameHeaderLen:]
	for cut := 0; cut < len(body); cut++ {
		if _, err := DecodeFrame(body[:cut]); err == nil {
			t.Fatalf("decode of %d/%d bytes succeeded, want error", cut, len(body))
		}
	}
}

func TestWireReaderHugeCountRejected(t *testing.T) {
	// A corrupt element count larger than the remaining input must error
	// out instead of driving a huge allocation.
	var body []byte
	body = binary.AppendUvarint(body, 1<<40)
	r := NewWireReader(body)
	if n := r.ArrayLen(1); n != 0 || r.Err() == nil {
		t.Fatalf("ArrayLen = %d, err = %v; want 0 and an error", n, r.Err())
	}
	r = NewWireReader(body)
	if b := r.Bytes(); b != nil || r.Err() == nil {
		t.Fatalf("Bytes = %v, err = %v; want nil and an error", b, r.Err())
	}
	r = NewWireReader(body)
	if b := r.View(); b != nil || r.Err() == nil {
		t.Fatalf("View = %v, err = %v; want nil and an error", b, r.Err())
	}
}

// TestWireReaderView checks that View aliases the input with its capacity
// cut at the field, and decodes an empty field as nil.
func TestWireReaderView(t *testing.T) {
	data := AppendBytes(nil, []byte("abc"))
	data = AppendBytes(data, nil)
	data = AppendBytes(data, []byte("z"))
	orig := string(data)
	r := NewWireReader(data)
	v, empty, z := r.View(), r.View(), r.View()
	if err := r.Err(); err != nil || r.Len() != 0 {
		t.Fatalf("err = %v, %d bytes left", err, r.Len())
	}
	if string(v) != "abc" || &v[0] != &data[1] {
		t.Fatalf("View = %q, want \"abc\" aliasing the input", v)
	}
	if empty != nil {
		t.Fatalf("empty View = %v, want nil", empty)
	}
	_ = append(v, 'X') // must reallocate, not clobber the next field
	if string(z) != "z" || string(data) != orig {
		t.Fatalf("append to a View overwrote the input: %q", data)
	}
}

// FuzzDecodeFrame asserts that arbitrarily corrupt frame bodies error
// cleanly — DecodeFrame must never panic or over-allocate, whatever the
// bytes.  Run with: go test -fuzz FuzzDecodeFrame ./internal/cluster/transport
func FuzzDecodeFrame(f *testing.F) {
	valid := encodeFrame(f, Envelope{From: -1, To: 7, Msg: fuzzMsg{
		U: 123, I: -9, B: true, Bs: []byte("payload"), S: "seed", Seq: []uint64{1, 2},
	}})
	f.Add(valid[frameHeaderLen:])
	traced := encodeFrame(f, Envelope{From: 1, To: 2, Msg: testMsg{Seq: 1, S: "traced"},
		Trace: TraceContext{TraceID: 5, SpanID: 6, Sampled: true}})
	f.Add(traced[frameHeaderLen:])
	f.Add([]byte{})
	f.Add([]byte{wireVersion})
	f.Add([]byte{wireVersion, 0})
	f.Add([]byte{wireVersion, 99})
	f.Fuzz(func(t *testing.T, body []byte) {
		env, err := DecodeFrame(body) // must not panic
		if err == nil && env.Msg == nil {
			t.Fatal("nil-error decode returned a nil message")
		}
	})
}
