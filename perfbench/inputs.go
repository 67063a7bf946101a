package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"

	"dbdht/internal/workload"
)

// streamKeys is the length of each loader's pre-generated key stream.  A
// loader that reaches its end starts over, so one run's inputs are fixed
// by the seed alone, however many batches the cluster completes.
const streamKeys = 1 << 20

// valueSize is the size of every value the benchmark writes.
const valueSize = 100

// zipfS is the zipfian exponent of the skewed workloads (dhtsim's value).
const zipfS = 1.2

// inputs is everything a run feeds the program, generated from the seed.
type inputs struct {
	names   []string // the keyspace; index i is the workload package's key i
	sums    []uint64 // FNV-64a of each key, embedded in its values
	streams []stream // one per loader
	picks   []int    // churn: index into the snode list of each join
	print   uint64   // fingerprint of everything above
}

// stream is one loader's batches: batch b covers
// keys[b*size : (b+1)*size], distinct within the batch; put[b] says
// whether it is an MPut (else an MGet).
type stream struct {
	size int
	keys []int32
	put  []bool
}

func (s *stream) batches() int { return len(s.put) }

func (s *stream) batch(b int) ([]int32, bool) {
	b %= s.batches()
	return s.keys[b*s.size : (b+1)*s.size], s.put[b]
}

// genInputs builds the keyspace and every loader's stream for one seed.
func genInputs(sp *spec, seed int64) (*inputs, error) {
	in := &inputs{names: make([]string, sp.keys), sums: make([]uint64, sp.keys)}
	for i := range in.names {
		in.names[i] = fmt.Sprintf("key-%08d", i) // the workload generators' key names
		in.sums[i] = keySum(in.names[i])
	}
	fp := fnv.New64a()
	for l := 0; l < sp.loaders; l++ {
		st, err := genStream(sp, seed, l)
		if err != nil {
			return nil, err
		}
		in.streams = append(in.streams, st)
		for b := 0; b < st.batches(); b++ {
			keys, put := st.batch(b)
			for _, k := range keys {
				fp.Write([]byte(in.names[k]))
			}
			fp.Write([]byte{boolByte(put)})
		}
	}
	if sp.churn {
		rng := rand.New(rand.NewSource(seed ^ 0x636875726e)) // "churn"
		in.picks = make([]int, 4096)
		for i := range in.picks {
			in.picks[i] = rng.Intn(snodes)
			fp.Write([]byte{byte(in.picks[i])})
		}
	}
	in.print = fp.Sum64()
	return in, nil
}

// genStream draws loader l's batches from the workload package's
// generators.  With sp.ownKeys each loader draws from its own share of
// the keyspace (keys with index ≡ l mod loaders), so every key has a
// single writer and the last acknowledged value of a key is well defined.
func genStream(sp *spec, seed int64, l int) (stream, error) {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(l)))
	space := sp.keys
	if sp.ownKeys {
		space = sp.keys / sp.loaders
	}
	var gen workload.KeyGen
	var err error
	if sp.zipf > 0 {
		gen, err = workload.NewZipf(rng, sp.zipf, space)
	} else {
		gen, err = workload.NewUniform(rng, space)
	}
	if err != nil {
		return stream{}, err
	}
	nb := streamKeys / sp.batch
	st := stream{size: sp.batch, keys: make([]int32, 0, nb*sp.batch), put: make([]bool, nb)}
	seen := make(map[int32]bool, sp.batch)
	for b := 0; b < nb; b++ {
		clear(seen)
		for len(seen) < sp.batch {
			k, err := strconv.Atoi(gen.Next()[len("key-"):])
			if err != nil {
				return stream{}, fmt.Errorf("workload key: %w", err)
			}
			if sp.ownKeys {
				k = k*sp.loaders + l
			}
			if !seen[int32(k)] {
				seen[int32(k)] = true
				st.keys = append(st.keys, int32(k))
			}
		}
		switch {
		case sp.alternate:
			st.put[b] = b%2 == 0
		default:
			st.put[b] = rng.Float64() < sp.putFrac
		}
	}
	return st, nil
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// keySum is FNV-64a of the key.
func keySum(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return h.Sum64()
}

// mix64 is SplitMix64's finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// putValue fills dst (valueSize bytes) with the value of version ver of
// the key whose checksum is sum: the key checksum, the version, then
// filler derived from both, so a value read back proves which key and
// which write it came from.
func putValue(dst []byte, sum, ver uint64) {
	binary.LittleEndian.PutUint64(dst[0:8], sum)
	binary.LittleEndian.PutUint64(dst[8:16], ver)
	x := mix64(sum ^ ver*0x9e3779b97f4a7c15)
	for i := 16; i < valueSize; i++ {
		dst[i] = byte(x>>(8*(i&7))) ^ byte(i)
	}
}

// checkValue reports the version a value carries and whether it is an
// intact value of the key whose checksum is sum.
func checkValue(v []byte, sum uint64) (uint64, bool) {
	if len(v) != valueSize || binary.LittleEndian.Uint64(v[0:8]) != sum {
		return 0, false
	}
	ver := binary.LittleEndian.Uint64(v[8:16])
	x := mix64(sum ^ ver*0x9e3779b97f4a7c15)
	for i := 16; i < valueSize; i++ {
		if v[i] != byte(x>>(8*(i&7)))^byte(i) {
			return 0, false
		}
	}
	return ver, true
}
