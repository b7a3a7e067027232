package main

import (
	"fmt"
	"math/rand/v2"
)

// opKind is a request type the generator issues.
type opKind uint8

const (
	opGet opKind = iota
	opPut
	opCAS
	opMulti
	numKinds
)

var kindNames = [numKinds]string{"get", "put", "cas", "multi"}

func (k opKind) String() string { return kindNames[k] }

// multiCmds is the size of every MULTI the generator sends: 4 GETs and 4
// PUTs in a seeded order.
const multiCmds = 8

// valLen is the size of every value the generator writes.
const valLen = 64

// workload is one traffic mix against one wtfd configuration.
type workload struct {
	name string
	why  string

	keys int  // preloaded keyspace size (a power of two)
	zipf bool // Zipf-skewed keys; uniform otherwise

	// Mix in percent; the remainder is MULTI.
	pGet, pPut, pCAS int
	// ownedWrites routes every PUT and CAS of a connection to keys owned by
	// that connection (key % conns == conn), so a CAS's expected value is
	// known and the durability check knows each key's only writer.
	ownedWrites bool

	durable       bool
	snapshotEvery int // -snapshot-every for durable workloads

	// rate is the open-loop offered load over all connections (req/s). It
	// keeps wtfd at 0.6-0.9 of one CPU, about half of what the generator
	// leaves it on a 2-vCPU host; kv-read95 runs below half its closed-loop
	// saturation rate because its open-loop requests cost wtfd several
	// times the CPU of pipelined ones.
	rate float64
	// window is the closed-loop in-flight requests per connection.
	window int
}

var workloads = []*workload{
	{
		name: "kv-read95",
		why:  "95% GET/5% PUT, Zipf keys, memory-only wtfd: GETs take the lock-free fast path (wire, read loop, tstruct, mvstm.ReadLatest), never core; wal and persist idle",
		keys: 1 << 16, zipf: true,
		pGet: 95, pPut: 5,
		rate: 20000, window: 64,
	},
	{
		name: "multi8-skew",
		why:  "every request a MULTI of 4 GET + 4 PUT on Zipf keys, memory-only WO/LAC wtfd: one core transaction fanning out per-shard futures under contention; no fast path, no wal",
		keys: 1 << 16, zipf: true,
		rate: 2000, window: 8,
	},
	{
		name: "durable-write",
		why:  "70% PUT/20% CAS/10% GET, -fsync group: wal, ack daemon, group commit, persist checkpoints; kill -9 restart check keeps the page cache, so process-crash durability only",
		keys: 1 << 16, pGet: 10, pPut: 70, pCAS: 20, ownedWrites: true,
		durable: true, snapshotEvery: 2048,
		rate: 9000, window: 64,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// wtfdArgs is the workload's wtfd command line (without the program name).
func (w *workload) wtfdArgs(dataDir string) []string {
	args := []string{"-listen", "127.0.0.1:0"}
	if w.durable {
		args = append(args, "-data-dir", dataDir, "-fsync", "group",
			"-snapshot-every", fmt.Sprint(w.snapshotEvery))
	}
	return args
}

// issues reports whether the workload sends requests of kind k.
func (w *workload) issues(k opKind) bool {
	switch k {
	case opGet:
		return w.pGet > 0
	case opPut:
		return w.pPut > 0
	case opCAS:
		return w.pCAS > 0
	}
	return w.pGet+w.pPut+w.pCAS < 100
}

// op is one generated request: a single-key command or a MULTI.
type op struct {
	kind opKind
	n    int // commands: 1, or multiCmds for a MULTI
	keys [multiCmds]int32
	put  [multiCmds]bool // MULTI only: command i is a PUT (else a GET)

	preload  bool // a PUT of the key's preload value (outside the ledger)
	readback bool // a GET checked against the durability contract
}

// Zipf parameters: P(rank r) is proportional to (zipfV + r)^-zipfS, which
// puts about 1.7% of accesses on the hottest key and 16% on the hottest 16.
const (
	zipfS = 1.1
	zipfV = 10
)

// opGen is one connection's seeded op stream. Streams are independent per
// (seed, stream, connection), so the same seed always yields the same ops.
type opGen struct {
	w      *workload
	conn   int
	nconns int
	r      *rand.Rand
	z      *rand.Zipf
}

func newOpGen(w *workload, seed, stream uint64, conn, nconns int) *opGen {
	r := rand.New(rand.NewPCG(seed, stream<<8|uint64(conn)))
	g := &opGen{w: w, conn: conn, nconns: nconns, r: r}
	if w.zipf {
		g.z = rand.NewZipf(r, zipfS, zipfV, uint64(w.keys-1))
	}
	return g
}

// key draws a key from the workload's distribution. Zipf ranks are spread
// over the keyspace by an odd-multiplier bijection, so hot keys land on
// different shards.
func (g *opGen) key() int32 {
	if g.z == nil {
		return int32(g.r.IntN(g.w.keys))
	}
	return int32((g.z.Uint64()*40503 + 12345) & uint64(g.w.keys-1))
}

// writeKey draws the key of a PUT or CAS.
func (g *opGen) writeKey() int32 {
	if !g.w.ownedWrites {
		return g.key()
	}
	return int32(g.r.IntN(g.w.keys/g.nconns)*g.nconns + g.conn)
}

// next fills o with the stream's next request; the stream never ends.
func (g *opGen) next(o *op) bool {
	w := g.w
	o.preload, o.readback = false, false
	p := g.r.IntN(100)
	switch {
	case p < w.pGet:
		o.kind, o.n, o.keys[0] = opGet, 1, g.key()
	case p < w.pGet+w.pPut:
		o.kind, o.n, o.keys[0] = opPut, 1, g.writeKey()
	case p < w.pGet+w.pPut+w.pCAS:
		o.kind, o.n, o.keys[0] = opCAS, 1, g.writeKey()
	default:
		o.kind, o.n = opMulti, multiCmds
		for i := range multiCmds {
			o.keys[i] = g.key()
			o.put[i] = i%2 == 1
		}
		g.r.Shuffle(multiCmds, func(i, j int) { o.put[i], o.put[j] = o.put[j], o.put[i] })
	}
	return true
}

// source yields the requests of a closed-loop phase; false ends it.
type source interface{ next(o *op) bool }

// keySource walks the keys a connection owns (key % conns == conn) once:
// as preload PUTs, or as durability read-back GETs.
type keySource struct {
	keys, conn, nconns int
	readback           bool
	i                  int
}

func (s *keySource) next(o *op) bool {
	k := s.i*s.nconns + s.conn
	if k >= s.keys {
		return false
	}
	s.i++
	*o = op{kind: opPut, n: 1, preload: true}
	if s.readback {
		*o = op{kind: opGet, n: 1, readback: true}
	}
	o.keys[0] = int32(k)
	return true
}

// gap draws an exponential inter-arrival time (ns) for a Poisson process
// of the given rate (req/s).
func (g *opGen) gap(rate float64) int64 {
	return int64(g.r.ExpFloat64() / rate * 1e9)
}
