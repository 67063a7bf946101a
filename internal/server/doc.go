// Package server exposes a running dbdht cluster over HTTP/JSON: the
// key/value data plane (single-key and batched), the admin plane (snode
// and vnode membership, enrollment), and introspection (status snapshot
// and Prometheus metrics).  POST /v1/kv:batch also takes the binary body
// of package batchwire, chosen by the request's Content-Type and answered
// in kind.  It is built on net/http's pattern mux only —
// no external dependencies — and is safe for concurrent use, mirroring
// the cluster handle's own concurrency guarantees.
package server
