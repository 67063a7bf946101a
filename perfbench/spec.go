package main

import "dbdht/internal/workload"

// The cluster shape every workload boots: the repository's data-plane
// benchmark topology.
const (
	snodes = 8
	vnodes = 32
	pmin   = 32
	vmin   = 8
)

// spec is one workload: the cluster it boots and the closed loop it
// drives.  README.md says why each workload exists.
type spec struct {
	name     string
	tcp      bool // TCP loopback fabric (else the in-memory fabric)
	replicas int
	wal      bool // write-ahead log with fsync=off
	http     bool // load goes through client → HTTP → server.Handler()
	keys     int  // preloaded keyspace
	loaders  int  // closed-loop load goroutines (or HTTP connections)
	batch    int  // keys per batch, distinct within a batch
	zipf     float64
	putFrac  float64 // share of batches that are MPut (the rest MGet)
	// alternate makes batches alternate MPut, MGet instead of putFrac.
	alternate bool
	// ownKeys gives each loader its own share of the keyspace, so every
	// key has one writer.
	ownKeys bool
	// churn runs the vnode join/leave loop beside the loaders.
	churn bool
}

// exact reports whether every key has a single writer, so that every
// read can be checked against the key's last acknowledged version, not
// only against its checksum, and every written key read back.
func (sp *spec) exact() bool { return sp.ownKeys || sp.loaders == 1 }

var specs = []*spec{
	{
		name: "front-door-read", http: true, replicas: 1,
		keys: 100_000, loaders: 2, batch: 256, zipf: zipfS,
		putFrac: workload.YCSBB().Update,
	},
	{
		name: "wire-replicated-write", tcp: true, replicas: 2, wal: true,
		keys: 200_000, loaders: 2, batch: 256, putFrac: 1,
		ownKeys: true,
	},
	{
		name: "elastic-churn", replicas: 2,
		keys: 100_000, loaders: 1, batch: 64, zipf: zipfS, alternate: true,
		churn: true,
	},
}

func specByName(name string) *spec {
	for _, sp := range specs {
		if sp.name == name {
			return sp
		}
	}
	return nil
}
