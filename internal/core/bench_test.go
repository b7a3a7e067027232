package core

import (
	"testing"

	"wtftm/internal/mvstm"
)

// BenchmarkMultiShape is the engine side of a served MULTI: one top-level
// transaction submits six single-write futures (one per touched shard) and
// evaluates them in submission order. Its B/op and allocs/op are the
// engine's per-MULTI garbage; scripts/ci.sh gates the allocation count.
func BenchmarkMultiShape(b *testing.B) {
	const futs = 6
	stm := mvstm.New()
	sys := New(stm, Options{Ordering: WO, Atomicity: LAC})
	var boxes [futs]*mvstm.VBox
	for i := range boxes {
		boxes[i] = stm.NewBox(0)
	}
	var bodies [futs]func(*Tx) (any, error)
	for i := range bodies {
		box := boxes[i]
		bodies[i] = func(ftx *Tx) (any, error) {
			ftx.Write(box, i)
			return nil, nil
		}
	}
	var fs [futs]*Future
	body := func(tx *Tx) error {
		for i := range bodies {
			fs[i] = tx.Submit(bodies[i])
		}
		for _, f := range fs {
			if _, err := tx.Evaluate(f); err != nil {
				return err
			}
		}
		return nil
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sys.Atomic(body); err != nil {
			b.Fatal(err)
		}
	}
}
