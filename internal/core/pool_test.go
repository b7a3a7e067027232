package core

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"wtftm/internal/mvstm"
)

// idleRunners returns the number of parked runner goroutines.
func idleRunners(sys *System) int {
	sys.runners.mu.Lock()
	defer sys.runners.mu.Unlock()
	return len(sys.runners.idle)
}

// TestRunnerSpawningIsUnbounded: 256 futures whose bodies all wait on one
// barrier finish only if every one of them is running at the same time, so
// Submit must start a runner whenever none is idle — a capped pool would
// deadlock here.
func TestRunnerSpawningIsUnbounded(t *testing.T) {
	const n = 256
	sys, stm := newSys(WO, LAC)
	x := stm.NewBoxNamed("x", 0)
	var barrier sync.WaitGroup
	barrier.Add(n)
	done := make(chan error, 1)
	go func() {
		done <- sys.Atomic(func(tx *Tx) error {
			fs := make([]*Future, n)
			for i := range fs {
				fs[i] = tx.Submit(func(ftx *Tx) (any, error) {
					barrier.Done()
					barrier.Wait()
					return ftx.Read(x), nil
				})
			}
			for _, f := range fs {
				if _, err := tx.Evaluate(f); err != nil {
					return err
				}
			}
			return nil
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("futures blocked on a sibling never ran: runner spawning is bounded")
	}
	if got := sys.Stats().RunnerSpawns.Load(); got < n {
		t.Fatalf("RunnerSpawns = %d, want >= %d (all bodies ran at once)", got, n)
	}
	// Once they all return, at most runnerMaxIdle of the runners stay parked.
	for deadline := time.Now().Add(time.Second); idleRunners(sys) < runnerMaxIdle && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if got := idleRunners(sys); got > runnerMaxIdle {
		t.Fatalf("%d idle runners parked, cap is %d", got, runnerMaxIdle)
	}
}

// TestRunnersAreReusedAndExitWhenIdle: back-to-back transactions reuse the
// warm runners instead of starting a goroutine per future, and once the
// System goes quiet every runner exits, so an idle engine holds no
// goroutines.
func TestRunnersAreReusedAndExitWhenIdle(t *testing.T) {
	before := runtime.NumGoroutine()
	sys, stm := newSys(WO, LAC)
	var boxes [4]*mvstm.VBox
	for i := range boxes {
		boxes[i] = stm.NewBox(0)
	}
	write := func(b *mvstm.VBox, v int) func(*Tx) (any, error) {
		return func(ftx *Tx) (any, error) { ftx.Write(b, v); return nil, nil }
	}
	const txs = 200
	for i := 0; i < txs; i++ {
		err := sys.Atomic(func(tx *Tx) error {
			_, err := tx.ForkJoin(write(boxes[0], i), write(boxes[1], i), write(boxes[2], i), write(boxes[3], i))
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	st := sys.Stats().Snapshot()
	if st.FuturesSubmitted != 4*txs {
		t.Fatalf("FuturesSubmitted = %d, want %d", st.FuturesSubmitted, 4*txs)
	}
	if st.RunnerSpawns*10 > st.FuturesSubmitted {
		t.Fatalf("RunnerSpawns = %d for %d futures: runners are not reused", st.RunnerSpawns, st.FuturesSubmitted)
	}

	deadline := time.Now().Add(10 * runnerIdleTimeout)
	for idleRunners(sys) > 0 || runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("runners still alive %v after the last future: %d idle, %d goroutines (baseline %d)",
				10*runnerIdleTimeout, idleRunners(sys), runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
