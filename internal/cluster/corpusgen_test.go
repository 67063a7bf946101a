package cluster

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"dbdht/internal/cluster/transport"
	"dbdht/internal/core"
	"dbdht/internal/hashspace"
)

// TestGenerateFuzzCorpus regenerates the committed seed corpus for
// transport.FuzzDecodeFrame: one frame body per live wire tag, plus a
// traced frame and a truncated one.  The replies to a replica write and
// to the three migration steps keep their seed names; each is an errResp
// frame.  Run manually with DBDHT_GEN_CORPUS=1 when the wire protocol
// grows a new message.
func TestGenerateFuzzCorpus(t *testing.T) {
	if os.Getenv("DBDHT_GEN_CORPUS") == "" {
		t.Skip("set DBDHT_GEN_CORPUS=1 to regenerate the fuzz seed corpus")
	}
	dir := filepath.Join("..", "cluster", "transport", "testdata", "fuzz", "FuzzDecodeFrame")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	p := hashspace.Partition{Level: 3, Prefix: 5}
	items := []batchItem{{Key: "seed-key", Value: []byte("seed-value")}}
	owner := VnodeName{Snode: 1, Local: 2}
	ref := ownerRef{Vnode: owner, Host: 1}
	g := core.GroupID{Bits: 1, Len: 1}
	st := lpdrState{Group: g, Level: 3, Leader: 1, Members: []memberInfo{{Vnode: owner, Host: 1, Count: 8}}}
	routes := []routeEntry{{Partition: p, Ref: ref, Replicas: []transport.NodeID{2}}}
	seeds := map[string]transport.Envelope{
		"seed-lookup-req":  {From: -1, To: 1, Msg: lookupReq{Op: 7, R: 0xdead, ReplyTo: -1, Hops: 1}},
		"seed-lookup-resp": {From: 1, To: -1, Msg: lookupResp{Op: 7, Host: 1, Partition: p}},
		"seed-batch-req":   {From: -1, To: 1, Msg: batchReq{Op: 8, Kind: opPut, Items: items, ReplyTo: -1}},
		"seed-batch-resp":  {From: 1, To: -1, Msg: batchResp{Op: 8, Results: []batchItemResp{{Value: []byte("seed-value"), Found: true}}}},
		"seed-repl-write-req": {From: 1, To: 2, Msg: replWriteReq{
			Op: 9, Kind: opPut, ReplyTo: 1,
			Sets: []replWriteSet{{Partition: p, Items: items, Ver: 4}},
		}},
		"seed-repl-write-resp": {From: 2, To: 1, Msg: errResp{Op: 9}},
		"seed-repl-probe-req":  {From: 1, To: 2, Msg: replProbeReq{Op: 10, Partition: p, ReplyTo: 1}},
		"seed-repl-probe-resp": {From: 2, To: 1, Msg: replProbeResp{Op: 10, InSync: true}},
		"seed-ping-req":        {From: -1, To: 1, Msg: pingReq{Op: 11, ReplyTo: -1}},
		"seed-ping-resp":       {From: 1, To: -1, Msg: pingResp{Op: 11}},
		"seed-mig-begin-req":   {From: 1, To: 2, Msg: migBeginReq{Op: 12, Partition: p, ReplyTo: 1}},
		"seed-mig-begin-resp":  {From: 2, To: 1, Msg: errResp{Op: 12, Err: "vnode not allocated"}},
		"seed-mig-chunk-req": {From: 1, To: 2, Msg: migChunkReq{
			Op: 13, Partition: p, ReplyTo: 1,
			Items: []migItem{{Key: "seed-key", Value: []byte("seed-value")}},
		}},
		"seed-mig-chunk-resp":  {From: 2, To: 1, Msg: errResp{Op: 13}},
		"seed-mig-commit-req":  {From: 1, To: 2, Msg: migCommitReq{Op: 14, Partition: p, ReplyTo: 1}},
		"seed-mig-commit-resp": {From: 2, To: 1, Msg: errResp{Op: 14, Err: "superseded"}},
		"seed-mig-abort":       {From: 1, To: 2, Msg: migAbortMsg{Partition: p}},
		"seed-load-req":        {From: -1, To: 1, Msg: loadReportReq{Op: 15, ReplyTo: -1}},
		"seed-load-resp":       {From: 1, To: -1, Msg: loadReportResp{Op: 15, Vnodes: 2, Keys: 42}},
		// Control range.
		"seed-err-resp":          {From: 2, To: 1, Msg: errResp{Op: 18, Err: "boom"}},
		"seed-create-vnode-req":  {From: -1, To: 1, Msg: createVnodeReq{Op: 19, ReplyTo: -1, Bootstrap: true}},
		"seed-create-vnode-resp": {From: 1, To: -1, Msg: createVnodeResp{Op: 19, Vnode: owner, Group: g}},
		"seed-join-group-req":    {From: 1, To: 2, Msg: joinGroupReq{Op: 20, Group: g, NewVnode: owner, NewHost: 1, ReplyTo: 1}},
		"seed-join-group-resp":   {From: 2, To: 1, Msg: joinGroupResp{Op: 20, Group: g, Retry: true}},
		"seed-leave-vnode-req":   {From: 1, To: 2, Msg: leaveVnodeReq{Op: 21, Vnode: owner, Group: g, ReplyTo: 1}},
		"seed-leave-vnode-resp":  {From: 2, To: 1, Msg: leaveVnodeResp{Op: 21, Err: "busy"}},
		"seed-split-all-req":     {From: 2, To: 1, Msg: splitAllReq{Op: 22, Group: g, NewLevel: 4, ReplyTo: 2}},
		"seed-transfer-req": {From: 2, To: 1, Msg: transferReq{
			Op: 23, Group: g, From: owner, To: VnodeName{Snode: 2}, ToHost: 2, Level: 3, ReplyTo: 2,
		}},
		"seed-transfer-resp":      {From: 1, To: 2, Msg: transferResp{Op: 23, Partition: p, Keys: 5}},
		"seed-ship-vnode-req":     {From: 2, To: 1, Msg: shipVnodeReq{Op: 24, Vnode: owner, Dests: []ownerRef{ref}, ReplyTo: 2}},
		"seed-group-init":         {From: 2, To: 1, Msg: groupInit{Op: 25, State: st, ReplyTo: 2}},
		"seed-lpdr-sync":          {From: 1, To: 2, Msg: lpdrSyncMsg{State: st, Dissolved: []core.GroupID{{}}}},
		"seed-bootstrap-info":     {From: -1, To: 1, Msg: bootstrapInfo{Owner: ref}},
		"seed-snode-leaving":      {From: -1, To: 1, Msg: snodeLeavingMsg{Leaving: 3, Routes: routes, Crashed: true}},
		"seed-snode-recovered":    {From: -1, To: 1, Msg: snodeRecoveredMsg{Recovered: 3, Routes: routes}},
		"seed-view-update":        {From: -1, To: 1, Msg: viewUpdate{Epoch: 2, Snodes: []transport.NodeID{1, 2, 3}}},
		"seed-repl-sync-req":      {From: 1, To: 2, Msg: replSyncReq{Op: 26, Partition: p, Data: map[string][]byte{"seed-key": []byte("seed-value")}, Ver: 4, Group: g, ReplyTo: 1}},
		"seed-repl-drop":          {From: 1, To: 2, Msg: replDropMsg{Partitions: []hashspace.Partition{p}}},
		"seed-promote-query-req":  {From: 1, To: 2, Msg: promoteQueryReq{Op: 27, Partition: p, Dead: 3, ReplyTo: 1}},
		"seed-promote-query-resp": {From: 2, To: 1, Msg: promoteQueryResp{Op: 27, Has: true, Ver: 4}},
		"seed-promote-order-req":  {From: 1, To: 2, Msg: promoteOrderReq{Op: 28, Partition: p, Dead: 3, ReplyTo: 1}},
		"seed-overlap-query-req":  {From: 1, To: 2, Msg: overlapQueryReq{Op: 29, Partition: p, ReplyTo: 1}},
		"seed-overlap-query-resp": {From: 2, To: 1, Msg: overlapQueryResp{Op: 29, Deeper: true}},
		// A traced data frame exercises the trace-context header fields.
		"seed-traced-batch-req": {
			From: -1, To: 1, Msg: batchReq{Op: 16, Kind: opGet, Items: items, ReplyTo: -1},
			Trace: transport.TraceContext{TraceID: 0xabcdef, SpanID: 2, Sampled: true},
		},
	}
	for name, env := range seeds {
		frame, err := transport.AppendFrame(nil, env)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		body := frame[4:] // FuzzDecodeFrame consumes the body after the length prefix
		if err := writeSeed(dir, name, body); err != nil {
			t.Fatal(err)
		}
	}

	// A multi-item batch frame cut mid-payload: the decoder must reject a
	// body whose declared item lengths run past the truncated end instead
	// of over-reading.  This is the shape a torn TCP read (or a nemesis
	// drop landing mid-burst) would hand the framer.
	burst, err := transport.AppendFrame(nil, transport.Envelope{
		From: -1, To: 1, Msg: batchReq{
			Op: 17, Kind: opPut, ReplyTo: -1,
			Items: []batchItem{
				{Key: "burst-key-0", Value: []byte("burst-value-0")},
				{Key: "burst-key-1", Value: []byte("burst-value-1")},
				{Key: "burst-key-2", Value: []byte("burst-value-2")},
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	body := burst[4:]
	// Cut inside the second item's payload, past the header and first item.
	if err := writeSeed(dir, "seed-truncated-mid-burst", body[:len(body)*2/3]); err != nil {
		t.Fatal(err)
	}
}

func writeSeed(dir, name string, body []byte) error {
	content := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(body)))
	return os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644)
}
