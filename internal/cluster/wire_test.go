package cluster

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"dbdht/internal/cluster/transport"
	"dbdht/internal/core"
	"dbdht/internal/hashspace"
)

// roundTrip frames msg as an envelope, decodes it, and returns the decoded
// payload.
func roundTrip(t *testing.T, msg any) any {
	t.Helper()
	frame, err := transport.AppendFrame(nil, transport.Envelope{From: -1, To: 42, Msg: msg})
	if err != nil {
		t.Fatalf("AppendFrame(%T): %v", msg, err)
	}
	env, err := transport.DecodeFrame(frame[4:])
	if err != nil {
		t.Fatalf("DecodeFrame(%T): %v", msg, err)
	}
	if env.From != -1 || env.To != 42 {
		t.Fatalf("%T: envelope header mangled: %+v", msg, env)
	}
	return env.Msg
}

// wireCases holds at least one value of every protocol message type, with
// optional fields both set and zero.  Empty slices are nil: the codec
// decodes a zero-length slice as nil.
func wireCases() []any {
	p := hashspace.Partition{Prefix: 0b1011, Level: 4}
	owner := VnodeName{Snode: 3, Local: 7}
	g := core.GroupID{Bits: 0b10, Len: 2}
	st := lpdrState{Group: g, Level: 5, Leader: 3, Members: []memberInfo{
		{Vnode: owner, Host: 3, Count: 17},
		{Vnode: VnodeName{Snode: 4}, Host: 4},
	}}
	route := routeEntry{Partition: p, Ref: ownerRef{Vnode: owner, Host: 3}, Replicas: []transport.NodeID{1, 2}}
	return []any{
		lookupReq{Op: 9, R: 1 << 60, ReplyTo: -1, Hops: 12},
		lookupResp{Op: 10, Owner: owner, Host: 3, Partition: p,
			Group: core.GroupID{Bits: 0b110, Len: 3}, Leader: 5, Err: "boom"},
		lookupResp{Op: 11}, // zero-valued optional fields
		batchReq{Op: 12, Kind: opPut, Items: []batchItem{
			{Key: "a", Value: []byte("va")},
			{Key: "b"}, // nil value (deletes, gets)
		}, ReplyTo: -1, Hops: 2, ReadReplica: true, private: true},
		batchReq{Op: 13, Kind: opGet, private: true}, // empty batch
		batchResp{Op: 14, Results: []batchItemResp{
			{Value: []byte("v"), Found: true},
			{Err: "missing"},
		}, Served: []routeEntry{
			{Partition: p, Ref: ownerRef{Vnode: owner, Host: 3}, Replicas: []transport.NodeID{1, 2}},
			{Partition: hashspace.Partition{}, Ref: ownerRef{Vnode: VnodeName{Snode: 1}, Host: 1}},
		}},
		replWriteReq{Op: 15, Kind: opDel, Sets: []replWriteSet{
			{Partition: p, Items: []batchItem{{Key: "k", Value: []byte("v")}}},
			{Partition: p.Sibling()},
		}, ReplyTo: 4, private: true},
		replProbeReq{Op: 17, Partition: p, Count: 321, Sum: 1<<63 + 5, ReplyTo: 2},
		replProbeResp{Op: 18, InSync: true},
		pingReq{Op: 19, ReplyTo: -1},
		pingResp{Op: 20},
		migBeginReq{Op: 21, Group: core.GroupID{Bits: 0b10, Len: 2}, To: owner,
			Partition: p, Level: 4, ReplyTo: 6},
		migChunkReq{Op: 23, To: owner, Partition: p, Items: []migItem{
			{Key: "live", Value: []byte("v1")},
			{Key: "gone", Del: true},
			{Key: "empty"}, // nil value, not deleted
		}, ReplyTo: 6, private: true},
		migChunkReq{Op: 24, To: owner, Partition: p, private: true}, // empty chunk
		migCommitReq{Op: 26, To: owner, Partition: p, Items: []migItem{
			{Key: "final", Value: []byte("vf")},
		}, ReplyTo: 6, private: true},
		migAbortMsg{To: owner, Partition: p},
		loadReportReq{Op: 28, ReplyTo: -1},
		loadReportResp{Op: 29, Vnodes: 4, Keys: 12345, Quota: 0.375,
			Reads: 1234.5, Writes: 0.25, Bytes: 9.75e6},
		loadReportResp{Op: 30}, // all-zero floats

		// Control range.
		errResp{Op: 31, Err: "not allocated"},
		errResp{Op: 32},
		createVnodeReq{Op: 33, ReplyTo: -1, Bootstrap: true},
		createVnodeResp{Op: 34, Vnode: owner, Group: g, Err: "full"},
		joinGroupReq{Op: 35, Group: g, NewVnode: owner, NewHost: 3, ReplyTo: -1, Hops: 2},
		joinGroupResp{Op: 36, Group: core.GroupID{Bits: 0b110, Len: 3}, Retry: true, Err: "moved"},
		leaveVnodeReq{Op: 37, Vnode: owner, Group: g, ReplyTo: -1, Hops: 1},
		leaveVnodeResp{Op: 38, Retry: true, Err: "busy"},
		splitAllReq{Op: 39, Group: g, NewLevel: 6, ReplyTo: 2},
		transferReq{Op: 40, Group: g, From: owner, To: VnodeName{Snode: 5, Local: 1},
			ToHost: 5, Level: 6, ReplyTo: 2},
		transferResp{Op: 41, Partition: p, Keys: 99, Err: "frozen"},
		shipVnodeReq{Op: 42, Vnode: owner, Dests: []ownerRef{
			{Vnode: VnodeName{Snode: 1}, Host: 1},
			{Vnode: VnodeName{Snode: 2, Local: 3}, Host: 2},
		}, ReplyTo: 4},
		shipVnodeReq{Op: 43, Vnode: owner, ReplyTo: 4}, // no destinations
		groupInit{Op: 44, State: st, ReplyTo: 2},
		lpdrSyncMsg{State: st, Dissolved: []core.GroupID{{Bits: 0b0, Len: 1}}},
		lpdrSyncMsg{State: lpdrState{Leader: 1}}, // root group, nothing dissolved
		bootstrapInfo{Owner: ownerRef{Vnode: owner, Host: 3}},
		snodeLeavingMsg{Leaving: 6, Routes: []routeEntry{route, {Ref: ownerRef{Host: 1}}}, Crashed: true},
		snodeLeavingMsg{Leaving: 7},
		snodeRecoveredMsg{Recovered: 3, Routes: []routeEntry{route}},
		viewUpdate{Epoch: 12, Snodes: []transport.NodeID{1, 2, 5}},
		viewUpdate{Epoch: 13},
		replSyncReq{Op: 45, Partition: p, Data: map[string][]byte{"a": []byte("1"), "b": nil},
			Ver: 8, Group: g, ReplyTo: 2},
		replDropMsg{Partitions: []hashspace.Partition{p, p.Sibling()}},
		replDropMsg{},
		promoteQueryReq{Op: 46, Partition: p, Dead: 4, ReplyTo: 2},
		promoteQueryResp{Op: 47, Has: true, Prov: true, Ver: 1 << 40},
		promoteOrderReq{Op: 48, Partition: p, Dead: 4, ReplyTo: 2},
		overlapQueryReq{Op: 49, Partition: p, ReplyTo: 2},
		overlapQueryResp{Op: 50, Deeper: true},
	}
}

// TestWireRoundTrips round-trips every protocol message type through the
// binary frame codec and requires an exact value match.
func TestWireRoundTrips(t *testing.T) {
	for _, want := range wireCases() {
		got := roundTrip(t, want)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("round trip %T:\n got  %+v\n want %+v", want, got, want)
		}
	}
}

// TestWireTruncatedFrames cuts a realistic batchReq frame, and a frame of
// every other message in wireCases, at every byte offset: each prefix must
// decode to a clean error, never panic.
func TestWireTruncatedFrames(t *testing.T) {
	items := make([]batchItem, 16)
	for i := range items {
		items[i] = batchItem{Key: fmt.Sprintf("key-%04d", i), Value: []byte("0123456789abcdef")}
	}
	msg := batchReq{Op: 77, Kind: opPut, Items: items, ReplyTo: -1}
	var body []byte
	for _, m := range append([]any{msg}, wireCases()...) {
		frame, err := transport.AppendFrame(nil, transport.Envelope{From: 1, To: 2, Msg: m})
		if err != nil {
			t.Fatal(err)
		}
		body = frame[4:]
		for cut := 0; cut < len(body); cut++ {
			if _, err := transport.DecodeFrame(body[:cut]); err == nil {
				t.Fatalf("truncated %T frame (%d/%d bytes) decoded without error", m, cut, len(body))
			}
		}
	}
	frame, err := transport.AppendFrame(nil, transport.Envelope{From: 1, To: 2, Msg: msg})
	if err != nil {
		t.Fatal(err)
	}
	body = frame[4:]
	// Flipping the length of the items array to a huge value must error,
	// not allocate.
	corrupt := append([]byte(nil), body...)
	// Body layout: version, flags, From varint, To varint, tag uvarint,
	// Op uvarint, Kind varint, then the item count.
	off := 2
	for n := 0; n < 4; n++ { // From, To, tag, Op, Kind occupy varints
		_, w := binary.Uvarint(corrupt[off:])
		off += w
	}
	_, w := binary.Varint(corrupt[off:])
	off += w
	huge := binary.AppendUvarint(nil, 1<<50)
	corrupt = append(corrupt[:off], append(huge, corrupt[off:]...)...)
	if _, err := transport.DecodeFrame(corrupt); err == nil {
		t.Fatal("frame with a corrupt huge item count decoded without error")
	}
}

// rawFrame wraps a hand-built payload in a frame body, for field values
// no encoder produces.  The version byte comes from a real frame, so it
// tracks the codec's.
func rawFrame(t *testing.T, tag uint16, payload []byte) []byte {
	t.Helper()
	ping, err := transport.AppendFrame(nil, transport.Envelope{Msg: pingResp{}})
	if err != nil {
		t.Fatal(err)
	}
	body := []byte{ping[4], 0} // wire version, no flags
	body = transport.AppendVarint(body, 1)
	body = transport.AppendVarint(body, 2)
	body = transport.AppendUvarint(body, uint64(tag))
	return append(body, payload...)
}

// TestWireRejectsInvalidPartition: a structurally valid frame carrying an
// out-of-range partition (level beyond MaxLevel, or stray prefix bits)
// must decode to an error — downstream bookkeeping indexes arrays by
// level, so an unvalidated level would be a remote panic.
func TestWireRejectsInvalidPartition(t *testing.T) {
	for _, bad := range []struct {
		name string
		pre  uint64
		lvl  uint64
	}{
		{"level-past-max", 0, uint64(hashspace.MaxLevel) + 1},
		{"level-huge", 0, 300},
		{"prefix-bits-above-level", 0b111, 1},
	} {
		t.Run(bad.name, func(t *testing.T) {
			var payload []byte
			payload = transport.AppendUvarint(payload, 9) // Op
			payload = transport.AppendUvarint(payload, bad.pre)
			payload = transport.AppendUvarint(payload, bad.lvl)
			payload = transport.AppendVarint(payload, 0) // Count
			payload = transport.AppendUvarint(payload, 0)
			payload = transport.AppendVarint(payload, 1) // ReplyTo
			_, err := transport.DecodeFrame(rawFrame(t, wireTagReplProbeReq, payload))
			if err == nil {
				t.Fatalf("frame with partition (prefix=%b, level=%d) decoded without error", bad.pre, bad.lvl)
			}
			if !strings.Contains(err.Error(), "partition") {
				t.Fatalf("rejected for the wrong reason: %v", err)
			}
		})
	}
}

// TestWireRejectsInvalidGroupAndLevel: group ids and splitlevels are
// validated like partitions — a group id past 63 digits would panic at its
// next split, stray bits above its length would give one group two names,
// and a splitlevel past MaxLevel would index past the level arrays.
func TestWireRejectsInvalidGroupAndLevel(t *testing.T) {
	for _, bad := range []struct {
		name          string
		bits, n, lvl  uint64
		wantErrSubstr string
	}{
		{"group-too-deep", 0, 64, 3, "group id"},
		{"group-bits-above-length", 0b100, 2, 3, "group id"},
		{"level-past-max", 0b1, 1, uint64(hashspace.MaxLevel) + 1, "splitlevel"},
	} {
		t.Run(bad.name, func(t *testing.T) {
			var payload []byte
			payload = transport.AppendUvarint(payload, 9) // Op
			payload = transport.AppendUvarint(payload, bad.bits)
			payload = transport.AppendUvarint(payload, bad.n)
			payload = transport.AppendUvarint(payload, bad.lvl)
			payload = transport.AppendVarint(payload, 1) // ReplyTo
			_, err := transport.DecodeFrame(rawFrame(t, wireTagSplitAllReq, payload))
			if err == nil {
				t.Fatal("frame decoded without error")
			}
			if !strings.Contains(err.Error(), bad.wantErrSubstr) {
				t.Fatalf("rejected for the wrong reason: %v", err)
			}
		})
	}
}
