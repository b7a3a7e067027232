package server

import (
	"fmt"
	"math/rand"
	"runtime"
	rtmetrics "runtime/metrics"
	"sync"
	"testing"

	"wtftm/internal/client"
	"wtftm/internal/wire"
)

// BenchmarkServerEcho measures the server request path — pooled decode,
// execute, append-encode, recycle — without the network in the way. This is
// the allocs/op gate scripts/ci.sh enforces (≤ 2 allocs/op): the lifecycle
// itself must not allocate in steady state, so serving cost scales with
// syscalls and transactions, not with GC pressure.
func BenchmarkServerEcho(b *testing.B) {
	s, err := New(Config{Shards: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Drain()
	payload, err := wire.AppendRequest(nil, &wire.Request{ID: 7, Op: wire.OpPing})
	if err != nil {
		b.Fatal(err)
	}
	var scratch []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := wire.AcquireRequest()
		if err := wire.DecodeRequestInto(req, payload); err != nil {
			b.Fatal(err)
		}
		resp := wire.AcquireResponse()
		s.execute(req, resp)
		wire.ReleaseRequest(req)
		out, err := wire.AppendResponse(scratch[:0], resp)
		if err != nil {
			b.Fatal(err)
		}
		scratch = out
		wire.ReleaseResponse(resp)
	}
}

// BenchmarkServerGetPath is BenchmarkServerEcho for a keyed read: adds the
// key-string materialization, the store lookup and one STM transaction.
// Reported for trajectory; the CI floor is on the echo path.
func BenchmarkServerGetPath(b *testing.B) {
	s, err := New(Config{Shards: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Drain()
	// Seed one key through the public path.
	seedReq := wire.AcquireRequest()
	seedResp := wire.AcquireResponse()
	put, err := wire.AppendRequest(nil, &wire.Request{ID: 1, Op: wire.OpPut, Cmd: wire.Put("bench-key", []byte("v"))})
	if err != nil {
		b.Fatal(err)
	}
	if err := wire.DecodeRequestInto(seedReq, put); err != nil {
		b.Fatal(err)
	}
	s.execute(seedReq, seedResp)
	wire.ReleaseRequest(seedReq)
	wire.ReleaseResponse(seedResp)

	payload, err := wire.AppendRequest(nil, &wire.Request{ID: 2, Op: wire.OpGet, Cmd: wire.Get("bench-key")})
	if err != nil {
		b.Fatal(err)
	}
	var scratch []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := wire.AcquireRequest()
		if err := wire.DecodeRequestInto(req, payload); err != nil {
			b.Fatal(err)
		}
		resp := wire.AcquireResponse()
		s.execute(req, resp)
		wire.ReleaseRequest(req)
		out, err := wire.AppendResponse(scratch[:0], resp)
		if err != nil {
			b.Fatal(err)
		}
		scratch = out
		wire.ReleaseResponse(resp)
	}
}

// BenchmarkServerFastGet measures the GET fast path's whole serving unit as
// the read loop runs it per frame: raw-payload GET classification
// (wire.DecodeGetKey — no pooled Request, no key string), shard hash and
// lock-free ReadLatest over the key bytes, and the direct response encode
// (wire.AppendGetResult — no Response object). This is the 0 allocs/op gate
// scripts/ci.sh enforces: the fast path's entire point is that a read-heavy
// workload generates no garbage, so a single alloc/op here is a regression.
func BenchmarkServerFastGet(b *testing.B) {
	s, err := New(Config{Shards: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Drain()
	seedReq := wire.AcquireRequest()
	seedResp := wire.AcquireResponse()
	put, err := wire.AppendRequest(nil, &wire.Request{ID: 1, Op: wire.OpPut, Cmd: wire.Put("bench-key", []byte("fast-value"))})
	if err != nil {
		b.Fatal(err)
	}
	if err := wire.DecodeRequestInto(seedReq, put); err != nil {
		b.Fatal(err)
	}
	s.execute(seedReq, seedResp)
	wire.ReleaseRequest(seedReq)
	wire.ReleaseResponse(seedResp)

	get, err := wire.AppendRequest(nil, &wire.Request{ID: 2, Op: wire.OpGet, Cmd: wire.Get("bench-key")})
	if err != nil {
		b.Fatal(err)
	}
	var scratch []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id, key, ok := wire.DecodeGetKey(get)
		if !ok {
			b.Fatal("GET frame not classified as fast-servable")
		}
		sh := s.store.shardOfBytes(key)
		val, found, _, rok := s.store.getFastBytes(sh, key)
		if !rok {
			b.Fatal("fast read fell back on an idle server")
		}
		scratch = wire.AppendGetResult(scratch[:0], id, val, found)
	}
}

// BenchmarkServerMulti measures the executor path of the MULTI shape the
// benchmark's multi8-skew workload sends — 4 GETs and 4 PUTs of 64 B values
// per request, one core transaction fanning out per-shard futures — over a
// 64k-key store, including request decode and response encode. Besides
// B/op and allocs/op it reports gc-cpu-ns/op: the runtime's estimate of GC
// CPU time (runtime/metrics /cpu/classes/gc/total:cpu-seconds, accumulated
// at the end of each cycle) per MULTI. That is where the cost of keeping
// the keyspace live on the heap shows up, since the GC marks every
// pointer-bearing object of it on every cycle.
func BenchmarkServerMulti(b *testing.B) {
	const keys, valLen = 64 << 10, 64
	s, err := New(Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Drain()
	key := func(i int) string { return fmt.Sprintf("key-%06d", i) }
	val := func(i int) []byte { return []byte(fmt.Sprintf("%-*d", valLen, i)) }
	var scratch []byte
	run := func(payload []byte) {
		req := wire.AcquireRequest()
		if err := wire.DecodeRequestInto(req, payload); err != nil {
			b.Fatal(err)
		}
		resp := wire.AcquireResponse()
		s.execute(req, resp)
		wire.ReleaseRequest(req)
		if resp.Result.Status != wire.StatusOK {
			b.Fatalf("MULTI status %v", resp.Result.Status)
		}
		if scratch, err = wire.AppendResponse(scratch[:0], resp); err != nil {
			b.Fatal(err)
		}
		wire.ReleaseResponse(resp)
	}
	for lo := 0; lo < keys; lo += 1024 {
		batch := make([]wire.Cmd, 1024)
		for i := range batch {
			batch[i] = wire.Put(key(lo+i), val(lo+i))
		}
		load, err := wire.AppendRequest(nil, &wire.Request{ID: 1, Op: wire.OpMulti, Batch: batch})
		if err != nil {
			b.Fatal(err)
		}
		run(load)
	}
	rnd := rand.New(rand.NewSource(1))
	reqs := make([][]byte, 1024)
	for r := range reqs {
		batch := make([]wire.Cmd, 8)
		for i := range batch {
			k := rnd.Intn(keys)
			if i < 4 {
				batch[i] = wire.Get(key(k))
			} else {
				batch[i] = wire.Put(key(k), val(r))
			}
		}
		if reqs[r], err = wire.AppendRequest(nil, &wire.Request{ID: uint32(r), Op: wire.OpMulti, Batch: batch}); err != nil {
			b.Fatal(err)
		}
	}
	gcCPU := func() float64 {
		sample := []rtmetrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
		rtmetrics.Read(sample)
		return sample[0].Value.Float64()
	}
	runtime.GC()
	b.ReportAllocs()
	b.ResetTimer()
	gc0 := gcCPU()
	for i := 0; i < b.N; i++ {
		run(reqs[i%len(reqs)])
	}
	b.ReportMetric((gcCPU()-gc0)*1e9/float64(b.N), "gc-cpu-ns/op")
}

// BenchmarkServerE2EPipelined is the closed-loop loopback shape the wtfbench
// server sweep measures: concurrent clients, one pipelined connection each,
// single-key GET/PUT traffic. Useful with -cpuprofile to see where serving
// time goes end to end.
func BenchmarkServerE2EPipelined(b *testing.B) {
	for _, clients := range []int{1, 4} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			s, err := New(Config{Shards: 8})
			if err != nil {
				b.Fatal(err)
			}
			if err := s.Listen("127.0.0.1:0"); err != nil {
				b.Fatal(err)
			}
			defer s.Drain()
			addr := s.Addr().String()

			seed := client.New(client.Options{Addr: addr, Conns: 1})
			for i := 0; i < 64; i++ {
				if err := seed.Put(fmt.Sprintf("bench-key-%d", i), "0"); err != nil {
					b.Fatal(err)
				}
			}
			seed.Close()

			var wg sync.WaitGroup
			work := make(chan int, clients)
			cls := make([]*client.Client, clients)
			for w := 0; w < clients; w++ {
				cls[w] = client.New(client.Options{Addr: addr, Conns: 1})
				defer cls[w].Close()
			}
			errs := make(chan error, clients)
			for w := 0; w < clients; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					cl := cls[w]
					rnd := uint64(w)*2654435761 + 1
					for n := range work {
						for i := 0; i < n; i++ {
							rnd = rnd*6364136223846793005 + 1442695040888963407
							key := fmt.Sprintf("bench-key-%d", rnd%64)
							var err error
							if rnd&7 == 0 {
								err = cl.Put(key, "1")
							} else {
								_, _, err = cl.Get(key)
							}
							if err != nil {
								errs <- err
								return
							}
						}
					}
				}(w)
			}
			b.ReportAllocs()
			b.ResetTimer()
			per := b.N / clients
			for w := 0; w < clients; w++ {
				work <- per
			}
			close(work)
			wg.Wait()
			select {
			case err := <-errs:
				b.Fatal(err)
			default:
			}
		})
	}
}
