package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"wtftm/internal/mvstm"
	"wtftm/internal/workload"
)

// This file exercises the corners of the four semantics beyond the
// paper-figure scenarios of core_test.go: read stability, deep nesting,
// cancellation, GAC edge cases, and randomized differential testing.

func TestRepeatableReadsWithinSubTransaction(t *testing.T) {
	sys, stm := newSys(WO, LAC)
	x := stm.NewBoxNamed("x", 0)
	err := sys.Atomic(func(tx *Tx) error {
		first := tx.Read(x)
		gate := make(chan struct{})
		f := tx.Submit(func(ftx *Tx) (any, error) {
			v1 := ftx.Read(x)
			<-gate
			v2 := ftx.Read(x) // must equal v1 whatever happened meanwhile
			if v1 != v2 {
				return nil, fmt.Errorf("torn reads in future: %v vs %v", v1, v2)
			}
			return v1, nil
		})
		// The continuation writes x while the future is between its reads.
		tx.Write(x, 99)
		close(gate)
		v, err := tx.Evaluate(f)
		if err != nil {
			return err
		}
		if v != first {
			return fmt.Errorf("future observed %v, spawner snapshot was %v", v, first)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReadYourOwnWrites(t *testing.T) {
	sys, stm := newSys(WO, LAC)
	x := stm.NewBoxNamed("x", 1)
	err := sys.Atomic(func(tx *Tx) error {
		tx.Write(x, 2)
		if got := tx.Read(x); got != 2 {
			return fmt.Errorf("read-own-write = %v", got)
		}
		f := tx.Submit(func(ftx *Tx) (any, error) {
			ftx.Write(x, 3)
			if got := ftx.Read(x); got != 3 {
				return nil, fmt.Errorf("future read-own-write = %v", got)
			}
			return nil, nil
		})
		_, err := tx.Evaluate(f)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDeepNestingChain(t *testing.T) {
	sys, stm := newSys(WO, LAC)
	x := stm.NewBoxNamed("x", 0)
	const depth = 24
	var spawn func(tx *Tx, d int) (any, error)
	spawn = func(tx *Tx, d int) (any, error) {
		tx.Write(x, tx.Read(x).(int)+1)
		if d == 0 {
			return tx.Read(x), nil
		}
		f := tx.Submit(func(ftx *Tx) (any, error) { return spawn(ftx, d-1) })
		return tx.Evaluate(f)
	}
	var final any
	err := sys.Atomic(func(tx *Tx) error {
		v, err := spawn(tx, depth)
		final = v
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if final != depth+1 {
		t.Fatalf("deepest read = %v, want %d", final, depth+1)
	}
	if got := readInt(t, stm, x); got != depth+1 {
		t.Fatalf("x = %d, want %d", got, depth+1)
	}
}

func TestCancelledChildOfUserAbortedFuture(t *testing.T) {
	sys, stm := newSys(WO, LAC)
	x := stm.NewBoxNamed("x", 0)
	boom := errors.New("boom")
	err := sys.Atomic(func(tx *Tx) error {
		childStarted := make(chan *Future, 1)
		f := tx.Submit(func(ftx *Tx) (any, error) {
			child := ftx.Submit(func(ctx *Tx) (any, error) {
				ctx.Write(x, 999)
				return nil, nil
			})
			childStarted <- child
			return nil, boom // abort the parent future
		})
		if _, err := tx.Evaluate(f); !errors.Is(err, boom) {
			return fmt.Errorf("parent err = %v", err)
		}
		child := <-childStarted
		// The child was spawned by a discarded chain: it is cancelled.
		if _, err := tx.Evaluate(child); !errors.Is(err, ErrStaleFuture) {
			return fmt.Errorf("cancelled child evaluate = %v, want ErrStaleFuture", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := readInt(t, stm, x); got != 0 {
		t.Fatalf("cancelled child's write leaked: x = %d", got)
	}
}

// TestMergedChildOfUserAbortedFuture pins the schedule the test above only
// sometimes hits: the child settles and merges at submission into its
// spawner's chain before the spawner's body aborts. The discard takes the
// child's serialization point with it, so its write is dropped and its
// evaluation reports ErrStaleFuture rather than a success.
func TestMergedChildOfUserAbortedFuture(t *testing.T) {
	sys, stm := newSys(WO, LAC)
	x := stm.NewBoxNamed("x", 0)
	boom := errors.New("boom")
	err := sys.Atomic(func(tx *Tx) error {
		var child *Future
		f := tx.Submit(func(ftx *Tx) (any, error) {
			child = ftx.Submit(func(ctx *Tx) (any, error) {
				ctx.Write(x, 999)
				return nil, nil
			})
			<-child.settled
			if st := child.getState(); st != fMerged {
				return nil, fmt.Errorf("child settled in state %d, want merged", st)
			}
			return nil, boom
		})
		if _, err := tx.Evaluate(f); !errors.Is(err, boom) {
			return fmt.Errorf("parent err = %v", err)
		}
		if _, err := tx.Evaluate(child); !errors.Is(err, ErrStaleFuture) {
			return fmt.Errorf("merged child of a discarded chain evaluates to %v, want ErrStaleFuture", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := readInt(t, stm, x); got != 0 {
		t.Fatalf("discarded child's write leaked: x = %d", got)
	}
}

// TestMergedGrandchildOfUserAbortedFuture: the grandchild merges into the
// child's chain, the child merges into the parent's, and the parent then
// aborts. Both merged descendants are cancelled through the merge chain.
func TestMergedGrandchildOfUserAbortedFuture(t *testing.T) {
	sys, stm := newSys(WO, LAC)
	x := stm.NewBoxNamed("x", 0)
	y := stm.NewBoxNamed("y", 0)
	boom := errors.New("boom")
	err := sys.Atomic(func(tx *Tx) error {
		var child, grandchild *Future
		f := tx.Submit(func(ftx *Tx) (any, error) {
			child = ftx.Submit(func(ctx *Tx) (any, error) {
				grandchild = ctx.Submit(func(gtx *Tx) (any, error) {
					gtx.Write(x, 1)
					return nil, nil
				})
				<-grandchild.settled
				ctx.Write(y, 1)
				return nil, nil
			})
			<-child.settled
			if child.getState() != fMerged || grandchild.getState() != fMerged {
				return nil, fmt.Errorf("descendants settled in states %d/%d, want merged",
					child.getState(), grandchild.getState())
			}
			return nil, boom
		})
		if _, err := tx.Evaluate(f); !errors.Is(err, boom) {
			return fmt.Errorf("parent err = %v", err)
		}
		for _, d := range []*Future{child, grandchild} {
			if _, err := tx.Evaluate(d); !errors.Is(err, ErrStaleFuture) {
				return fmt.Errorf("merged descendant evaluates to %v, want ErrStaleFuture", err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if gx, gy := readInt(t, stm, x), readInt(t, stm, y); gx != 0 || gy != 0 {
		t.Fatalf("discarded descendants' writes leaked: x = %d, y = %d", gx, gy)
	}
}

func TestLACDoesNotResurrectCancelledChildren(t *testing.T) {
	sys, stm := newSys(WO, LAC)
	x := stm.NewBoxNamed("x", 0)
	boom := errors.New("boom")
	err := sys.Atomic(func(tx *Tx) error {
		f := tx.Submit(func(ftx *Tx) (any, error) {
			ftx.Submit(func(ctx *Tx) (any, error) {
				ctx.Write(x, 999)
				return nil, nil
			})
			return nil, boom
		})
		_, _ = tx.Evaluate(f)
		return nil // commit; LAC must NOT implicitly evaluate the cancelled child
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := readInt(t, stm, x); got != 0 {
		t.Fatalf("LAC resurrected a cancelled child: x = %d", got)
	}
}

func TestGACChainOfEscapes(t *testing.T) {
	// A future escapes T1; T2 evaluates it and spawns another escaping
	// future; T3 evaluates that one. The reference chain crosses three
	// top-level transactions (the generalization discussed after Fig. 1c).
	sys, stm := newSys(WO, GAC)
	ref1 := stm.NewBoxNamed("ref1", nil)
	ref2 := stm.NewBoxNamed("ref2", nil)
	acc := stm.NewBoxNamed("acc", 1)

	err := sys.Atomic(func(tx *Tx) error {
		f := tx.Submit(func(ftx *Tx) (any, error) {
			return ftx.Read(acc).(int) * 2, nil
		})
		tx.Write(ref1, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	err = sys.Atomic(func(tx *Tx) error {
		f1 := tx.Read(ref1).(*Future)
		v, err := tx.Evaluate(f1)
		if err != nil {
			return err
		}
		f2 := tx.Submit(func(ftx *Tx) (any, error) {
			return v.(int) + 5, nil
		})
		tx.Write(ref2, f2)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var got any
	err = sys.Atomic(func(tx *Tx) error {
		f2 := tx.Read(ref2).(*Future)
		v, err := tx.Evaluate(f2)
		got = v
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 7 { // 1*2 + 5
		t.Fatalf("chained escape result = %v, want 7", got)
	}
}

func TestGACEvaluatorAbortReleasesClaim(t *testing.T) {
	sys, stm := newSys(WO, GAC)
	ref := stm.NewBoxNamed("ref", nil)
	a := stm.NewBoxNamed("a", 4)
	poke := stm.NewBoxNamed("poke", 0)
	gate := make(chan struct{})
	err := sys.Atomic(func(tx *Tx) error {
		f := tx.Submit(func(ftx *Tx) (any, error) {
			v := ftx.Read(a).(int)
			<-gate
			return v * 10, nil
		})
		tx.Write(ref, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	close(gate)

	// First evaluator claims the escapee but then aborts (user decision).
	sentinel := errors.New("user abort")
	err = sys.Atomic(func(tx *Tx) error {
		f := tx.Read(ref).(*Future)
		if _, err := tx.Evaluate(f); err != nil {
			return err
		}
		_ = tx.Read(poke)
		tx.Abort(sentinel)
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}

	// A second evaluator must be able to claim and commit it.
	var got any
	err = sys.Atomic(func(tx *Tx) error {
		f := tx.Read(ref).(*Future)
		v, err := tx.Evaluate(f)
		got = v
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 40 {
		t.Fatalf("result after claim release = %v, want 40", got)
	}
}

func TestWriteSkewPreventedAcrossFutures(t *testing.T) {
	// Two futures of *different* top-level transactions each read both boxes
	// and write one: classic write skew. MV-STM read-set validation must
	// serialize them (one aborts and retries).
	sys, stm := newSys(WO, LAC)
	x := stm.NewBoxNamed("x", 1)
	y := stm.NewBoxNamed("y", 1)
	var wg sync.WaitGroup
	body := func(readBoth bool, from, to *mvstm.VBox) {
		defer wg.Done()
		_ = sys.Atomic(func(tx *Tx) error {
			f := tx.Submit(func(ftx *Tx) (any, error) {
				sum := ftx.Read(x).(int) + ftx.Read(y).(int)
				if sum >= 2 {
					ftx.Write(from, ftx.Read(from).(int)-1)
				}
				return nil, nil
			})
			_, err := tx.Evaluate(f)
			return err
		})
	}
	wg.Add(2)
	go body(true, x, y)
	go body(true, y, x)
	wg.Wait()
	final := readInt(t, stm, x) + readInt(t, stm, y)
	if final < 1 {
		t.Fatalf("write skew admitted: x+y = %d", final)
	}
}

// TestDifferentialRandomPrograms runs random single-threaded future programs
// under WO and SO and compares their committed states with a sequential
// oracle. SO must match the oracle exactly; WO must match when every future
// is evaluated immediately after submission (adjacent submit/evaluate means
// continuation and future cannot interleave observably in a deterministic
// program run... both serialization orders are exercised by the engine, so
// WO is checked only for *a* consistent outcome: the oracle value or the
// value obtained by commuting adjacent future/continuation blocks; for
// simplicity the generated programs use commutative additions, for which all
// serialization orders agree).
func TestDifferentialRandomPrograms(t *testing.T) {
	type step struct {
		Box   uint8
		Delta int8
		Fut   bool
	}
	run := func(ord Ordering, steps []step, useFutures bool) []int {
		stm := mvstm.New()
		sys := New(stm, Options{Ordering: ord, Atomicity: LAC})
		boxes := make([]*mvstm.VBox, 4)
		for i := range boxes {
			boxes[i] = stm.NewBoxNamed(fmt.Sprintf("b%d", i), 0)
		}
		err := sys.Atomic(func(tx *Tx) error {
			var futs []*Future
			for _, s := range steps {
				b := boxes[int(s.Box)%len(boxes)]
				d := int(s.Delta)
				if s.Fut && useFutures {
					futs = append(futs, tx.Submit(func(ftx *Tx) (any, error) {
						ftx.Write(b, ftx.Read(b).(int)+d)
						return nil, nil
					}))
				} else {
					tx.Write(b, tx.Read(b).(int)+d)
				}
			}
			for _, f := range futs {
				if _, err := tx.Evaluate(f); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		out := make([]int, len(boxes))
		txn := stm.Begin()
		for i, b := range boxes {
			out[i] = txn.Read(b).(int)
		}
		txn.Discard()
		return out
	}
	f := func(rawSteps []uint32) bool {
		if len(rawSteps) > 24 {
			rawSteps = rawSteps[:24]
		}
		steps := make([]step, len(rawSteps))
		for i, r := range rawSteps {
			steps[i] = step{Box: uint8(r), Delta: int8(r >> 8), Fut: r>>16&1 == 1}
		}
		oracle := run(SO, steps, false)
		so := run(SO, steps, true)
		wo := run(WO, steps, true)
		return fmt.Sprint(oracle) == fmt.Sprint(so) && fmt.Sprint(oracle) == fmt.Sprint(wo)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestManyConcurrentTopsHighContention hammers a tiny hot-spot set from
// many transactions with futures under both orderings and checks the final
// sum (every increment must apply exactly once).
func TestManyConcurrentTopsHighContention(t *testing.T) {
	for _, ord := range []Ordering{WO, SO} {
		t.Run(ord.String(), func(t *testing.T) {
			sys, stm := newSys(ord, LAC)
			hot := stm.NewBoxNamed("hot", 0)
			const tops = 8
			const futuresPer = 3
			var wg sync.WaitGroup
			for g := 0; g < tops; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					rng := workload.NewRNG(uint64(g) + 1)
					for i := 0; i < 5; i++ {
						err := sys.Atomic(func(tx *Tx) error {
							var futs []*Future
							for k := 0; k < futuresPer; k++ {
								futs = append(futs, tx.Submit(func(ftx *Tx) (any, error) {
									ftx.Write(hot, ftx.Read(hot).(int)+1)
									return nil, nil
								}))
								if rng.Intn(2) == 0 {
									_ = tx.Read(hot)
								}
							}
							for _, f := range futs {
								if _, err := tx.Evaluate(f); err != nil {
									return err
								}
							}
							return nil
						})
						if err != nil {
							t.Error(err)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			want := tops * 5 * futuresPer
			if got := readInt(t, stm, hot); got != want {
				t.Fatalf("hot = %d, want %d (lost or duplicated increments)", got, want)
			}
		})
	}
}

func TestStatsAccounting(t *testing.T) {
	sys, stm := newSys(WO, LAC)
	x := stm.NewBoxNamed("x", 0)
	err := sys.Atomic(func(tx *Tx) error {
		for i := 0; i < 3; i++ {
			f := tx.Submit(func(ftx *Tx) (any, error) {
				ftx.Write(x, ftx.Read(x).(int)+1)
				return nil, nil
			})
			if _, err := tx.Evaluate(f); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	s := sys.Stats().Snapshot()
	if s.FuturesSubmitted != 3 {
		t.Fatalf("FuturesSubmitted = %d", s.FuturesSubmitted)
	}
	if s.MergedAtSubmission+s.MergedAtEvaluation+s.FutureReexecutions < 3 {
		t.Fatalf("futures unaccounted for: %+v", s)
	}
	if s.TopCommits != 1 {
		t.Fatalf("TopCommits = %d", s.TopCommits)
	}
	if got := s.InternalAborts(); got != s.FutureReexecutions+s.TopInternal+s.EscapeReexecs {
		t.Fatalf("InternalAborts = %d", got)
	}
}
