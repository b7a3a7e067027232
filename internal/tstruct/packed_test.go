package tstruct

import (
	"errors"
	"fmt"
	"maps"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"wtftm/internal/mvstm"
)

func TestPackedMapBasic(t *testing.T) {
	stm := mvstm.New()
	m := NewPackedMapNamed(stm, "p", 8)
	big := strings.Repeat("L", PackedInlineMax+1)
	runTx(t, stm, func(tx *mvstm.Txn) error {
		if !m.Put(tx, "a", []byte("1")) {
			t.Error("Put of new key returned false")
		}
		if m.Put(tx, "a", []byte("2")) {
			t.Error("overwrite returned true")
		}
		if v, ok := m.Get(tx, "a"); !ok || v != "2" {
			t.Errorf("Get = (%q, %v)", v, ok)
		}
		if _, ok := m.Get(tx, "missing"); ok {
			t.Error("phantom key")
		}
		if !m.Put(tx, "big", []byte(big)) {
			t.Error("Put of new out-of-line key returned false")
		}
		if v, ok := m.Get(tx, "big"); !ok || v != big {
			t.Errorf("Get(big) = (%d bytes, %v)", len(v), ok)
		}
		if !m.Delete(tx, "a") || m.Delete(tx, "a") {
			t.Error("Delete/double delete misreported presence")
		}
		if !m.Delete(tx, "big") {
			t.Error("Delete of out-of-line key returned false")
		}
		if n := len(m.Snapshot(tx, nil)); n != 0 {
			t.Errorf("Snapshot after deletes has %d entries", n)
		}
		return nil
	})
}

// TestPackedMapValuesAreImmutable pins the privatization property the
// server relies on: a value read out of a committed version never changes,
// whatever later transactions write to the same key or bucket.
func TestPackedMapValuesAreImmutable(t *testing.T) {
	stm := mvstm.New()
	m := NewPackedMapNamed(stm, "p", 1)
	val := []byte("first")
	runTx(t, stm, func(tx *mvstm.Txn) error { m.Put(tx, "k", val); return nil })
	copy(val, "XXXXX") // the map copied the caller's bytes
	got, _, _, _ := m.GetFast("k")
	runTx(t, stm, func(tx *mvstm.Txn) error {
		m.Put(tx, "k", []byte("second"))
		m.Put(tx, "j", []byte("other"))
		m.Delete(tx, "k")
		return nil
	})
	if got != "first" {
		t.Fatalf("value read before later writes is now %q", got)
	}
}

func TestPackedMapSnapshotRestore(t *testing.T) {
	stm := mvstm.New()
	src := NewPackedMapNamed(stm, "src", 8)
	val := func(i int) string {
		if i%10 == 0 {
			return strings.Repeat(strconv.Itoa(i), PackedInlineMax) // out of line
		}
		return strconv.Itoa(i)
	}
	runTx(t, stm, func(tx *mvstm.Txn) error {
		for i := 0; i < 50; i++ {
			src.Put(tx, fmt.Sprintf("k%02d", i), []byte(val(i)))
		}
		return nil
	})
	var kvs []PackedKV
	runTx(t, stm, func(tx *mvstm.Txn) error {
		kvs = src.Snapshot(tx, kvs[:0])
		return nil
	})
	if len(kvs) != 50 {
		t.Fatalf("Snapshot returned %d entries, want 50", len(kvs))
	}

	// Restore into a map that already holds overlapping entries: later
	// duplicates win, pre-existing keys outside the batch survive.
	dst := NewPackedMapNamed(stm, "dst", 4) // different bucket count on purpose
	runTx(t, stm, func(tx *mvstm.Txn) error {
		dst.Put(tx, "k00", []byte("stale"))
		dst.Put(tx, "k10", []byte("stale"))
		dst.Put(tx, "extra", []byte(strings.Repeat("x", 1000)))
		return nil
	})
	runTx(t, stm, func(tx *mvstm.Txn) error {
		dst.Restore(tx, kvs)
		return nil
	})
	runTx(t, stm, func(tx *mvstm.Txn) error {
		if n := len(dst.Snapshot(tx, nil)); n != 51 {
			t.Errorf("entries after restore = %d, want 51", n)
		}
		for i := 0; i < 50; i++ {
			k := fmt.Sprintf("k%02d", i)
			if v, ok := dst.Get(tx, k); !ok || v != val(i) {
				t.Errorf("restored %s = (%q, %v), want %q", k, v, ok, val(i))
			}
		}
		if v, ok := dst.Get(tx, "extra"); !ok || len(v) != 1000 {
			t.Error("pre-existing entry lost by Restore")
		}
		return nil
	})

	// Duplicates inside one Restore call: last wins, stored once.
	dup := NewPackedMapNamed(stm, "dup", 2)
	runTx(t, stm, func(tx *mvstm.Txn) error {
		dup.Restore(tx, []PackedKV{{Key: "a", Val: "1"}, {Key: "b", Val: "x"}, {Key: "a", Val: "2"}})
		return nil
	})
	runTx(t, stm, func(tx *mvstm.Txn) error {
		if v, _ := dup.Get(tx, "a"); v != "2" {
			t.Errorf("duplicate restore kept %q, want 2", v)
		}
		if n := len(dup.Snapshot(tx, nil)); n != 2 {
			t.Errorf("duplicate restore stored %d entries, want 2", n)
		}
		return nil
	})

	// Restore(nil) is a no-op, not a panic.
	runTx(t, stm, func(tx *mvstm.Txn) error {
		dup.Restore(tx, nil)
		return nil
	})
}

// TestPackedMapGetFastMatchesGet checks that both lock-free read paths
// return exactly what a transactional Get returns, for present and absent
// keys, inline and out-of-line values, and the empty key.
func TestPackedMapGetFastMatchesGet(t *testing.T) {
	stm := mvstm.New()
	m := NewPackedMapNamed(stm, "p", 4)
	if _, found, retries, ok := m.GetFast("a"); !ok || found || retries != 0 {
		t.Fatalf("GetFast on empty map: found=%v retries=%d ok=%v", found, retries, ok)
	}
	keys := []string{"", "a", "b", "c", strings.Repeat("k", 1024)}
	runTx(t, stm, func(tx *mvstm.Txn) error {
		for i, k := range keys[:4] {
			m.Put(tx, k, []byte(strings.Repeat("v", i*200)))
		}
		m.Delete(tx, "b")
		return nil
	})
	for _, k := range append(keys, "absent") {
		var want string
		var wantOK bool
		runTx(t, stm, func(tx *mvstm.Txn) error {
			want, wantOK = m.Get(tx, k)
			return nil
		})
		v, found, _, ok := m.GetFast(k)
		if !ok || found != wantOK || v != want {
			t.Errorf("GetFast(%.8q) = (%d bytes, %v, ok=%v), Get = (%d bytes, %v)", k, len(v), found, ok, len(want), wantOK)
		}
		v, found, _, ok = m.GetFastBytes([]byte(k))
		if !ok || found != wantOK || v != want {
			t.Errorf("GetFastBytes(%.8q) = (%d bytes, %v, ok=%v), Get = (%d bytes, %v)", k, len(v), found, ok, len(want), wantOK)
		}
	}
}

// TestPackedMapPutBesideLargeValueAllocs checks the out-of-line rule: a
// write to a bucket that also holds a 64 KiB value copies that value's
// header, never the value.
func TestPackedMapPutBesideLargeValueAllocs(t *testing.T) {
	stm := mvstm.New()
	m := NewPackedMapNamed(stm, "p", 1)
	runTx(t, stm, func(tx *mvstm.Txn) error {
		m.Put(tx, "large", make([]byte, 64<<10))
		m.Put(tx, "small", []byte("v"))
		return nil
	})
	val := []byte("0123456789abcdef")
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		runTx(t, stm, func(tx *mvstm.Txn) error {
			m.Put(tx, "small", val)
			m.Put(tx, "new"+strconv.Itoa(i&3), val)
			m.Delete(tx, "new"+strconv.Itoa((i+2)&3))
			return nil
		})
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 4<<10 {
		t.Fatalf("a transaction writing beside a 64 KiB value allocates %d B, want < 4 KiB", per)
	}
	if v, ok, _, _ := m.GetFast("large"); !ok || len(v) != 64<<10 {
		t.Fatal("large value lost")
	}
}

// TestPackedMapFastReadStress races lock-free GetFastBytes readers against
// transactional Put/Delete writers, with a pinning reader that holds old
// snapshots open and then releases them so commits trim long version
// chains. Values alternate between inline and out-of-line sizes, so every
// write crosses the re-encoding paths. Run under -race.
func TestPackedMapFastReadStress(t *testing.T) {
	stm := mvstm.New()
	m := NewPackedMapNamed(stm, "p", 2)
	const stable, writes = 6, 399 // writes divisible by stable/2
	key := func(i int) string { return "k" + strconv.Itoa(i) }
	// val is self-describing: "<key>|<n>|" padded out of line on odd n.
	val := func(k string, n int) []byte {
		v := []byte(k + "|" + strconv.Itoa(n) + "|")
		if n%2 == 1 {
			v = append(v, strings.Repeat("#", PackedInlineMax)...)
		}
		return v
	}
	parse := func(k, v string) (int, error) {
		f := strings.SplitN(v, "|", 3)
		if len(f) != 3 || f[0] != k {
			return 0, fmt.Errorf("malformed value %.40q for %s", v, k)
		}
		n, err := strconv.Atoi(f[1])
		if err != nil || (n%2 == 1) != (len(f[2]) == PackedInlineMax) {
			return 0, fmt.Errorf("value %.40q for %s has the wrong shape", v, k)
		}
		return n, nil
	}
	runTx(t, stm, func(tx *mvstm.Txn) error {
		for i := 0; i < stable; i++ {
			m.Put(tx, key(i), val(key(i), 0))
		}
		return nil
	})

	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			volatile := "v" + strconv.Itoa(w)
			for i := 0; i < writes; i++ {
				k := key(w + 2*(i%(stable/2))) // each writer owns half the keys
				if err := stm.Atomic(func(tx *mvstm.Txn) error {
					cur, _ := m.Get(tx, k)
					n, err := parse(k, cur)
					if err != nil {
						return err
					}
					m.Put(tx, k, val(k, n+1))
					if i%3 == 0 {
						m.Delete(tx, volatile)
					} else {
						m.Put(tx, volatile, val(volatile, i))
					}
					return nil
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	readers.Add(1)
	go func() { // pins and releases snapshots so commits trim long chains
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			tx := stm.Begin()
			m.Get(tx, key(0))
			runtime.Gosched()
			tx.Discard()
		}
	}()
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			last := make(map[string]int)
			buf := make([]byte, 0, 8)
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i := 0; i < stable+2; i++ {
					k := key(i)
					if i >= stable {
						k = "v" + strconv.Itoa(i-stable)
					}
					v, found, _, ok := m.GetFastBytes(append(buf[:0], k...))
					if !ok {
						continue
					}
					if !found {
						if i < stable {
							t.Errorf("key %s vanished", k)
							return
						}
						continue
					}
					n, err := parse(k, v)
					if err != nil {
						t.Error(err)
						return
					}
					if i < stable && n < last[k] {
						t.Errorf("key %s went backwards: %d -> %d", k, last[k], n)
						return
					}
					last[k] = n
				}
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	runTx(t, stm, func(tx *mvstm.Txn) error {
		for i := 0; i < stable; i++ {
			v, _ := m.Get(tx, key(i))
			if n, err := parse(key(i), v); err != nil || n != writes/(stable/2) {
				t.Errorf("final %s = %d (%v), want %d", key(i), n, err, writes/(stable/2))
			}
		}
		return nil
	})
}

var errFuzzAbort = errors.New("fuzz: abort")

// FuzzPackedMap drives PackedMap with an op tape — Put, Delete, Get,
// Restore and Snapshot in transactions, some of which abort — and checks
// every result and the committed state against a map model. Keys include
// the empty key and a 1 KiB key; value lengths straddle the 1-to-2-byte
// varint boundary (127/128), the inline limit (±1) and reach 64 KiB.
func FuzzPackedMap(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 1, 0, 2, 2, 0, 3, 3, 0, 4, 4, 0, 5, 5, 0, 0, 6, 0, 1, 7, 0, 2, 8, 5, 0, 0}, uint8(0))
	f.Add([]byte{7, 0, 0, 8, 0, 1, 6, 0, 2, 2, 0, 0, 4, 1, 7, 5, 0, 0, 0x87, 3, 8, 2, 3, 0, 5, 0, 0}, uint8(1))
	f.Add([]byte("restore-heavy tape \x04\x04\x04 with aborts \x80\x81\x82 and big values \x08\x08"), uint8(3))
	// Two out-of-line values in one bucket, then the first one removed by
	// Delete and by an inline overwrite: the survivors must be renumbered.
	f.Add([]byte{4, 0, 1, 8, 0, 2, 7, 2, 1, 0, 3, 2, 0, 5, 0, 0, 3, 0, 3, 8, 0, 4, 7, 1, 3, 1, 5, 0, 0}, uint8(0))
	keys := []string{"", "a", "b", "k0", "k1", strings.Repeat("K", 1024)}
	lens := []int{0, 1, 64, 127, 128, PackedInlineMax - 1, PackedInlineMax, PackedInlineMax + 1, 64 << 10}
	f.Fuzz(func(t *testing.T, tape []byte, nb uint8) {
		if len(tape) > 300 {
			tape = tape[:300]
		}
		stm := mvstm.New()
		m := NewPackedMapNamed(stm, "fz", int(nb%4)+1)
		model := make(map[string]string)
		val := func(pos int, b byte) string {
			v := make([]byte, lens[int(b)%len(lens)])
			for j := range v {
				v[j] = byte(pos + j)
			}
			return string(v)
		}
		at := func(i int) byte {
			if i < len(tape) {
				return tape[i]
			}
			return 0
		}
		checkSnapshot := func(tx mvstm.ReadWriter, want map[string]string) {
			got := make(map[string]string)
			for _, kv := range m.Snapshot(tx, nil) {
				if _, dup := got[kv.Key]; dup {
					t.Fatalf("Snapshot lists %.8q twice", kv.Key)
				}
				got[kv.Key] = kv.Val
			}
			if !maps.Equal(got, want) {
				t.Fatalf("Snapshot has %d entries, model %d, or values differ", len(got), len(want))
			}
		}
		for pos := 0; pos < len(tape); {
			ctl := tape[pos]
			nops, abort := int(ctl%8)+1, ctl&0x80 != 0
			start := pos + 1
			var work map[string]string
			err := stm.Atomic(func(tx *mvstm.Txn) error {
				work = maps.Clone(model)
				i := start
				for n := 0; n < nops && i < len(tape); n, i = n+1, i+3 {
					k := keys[int(at(i+1))%len(keys)]
					switch at(i) % 6 {
					case 0, 1:
						v := val(i, at(i+2))
						_, had := work[k]
						if added := m.Put(tx, k, []byte(v)); added == had {
							t.Fatalf("Put(%.8q) added=%v, model had=%v", k, added, had)
						}
						work[k] = v
					case 2:
						_, had := work[k]
						if m.Delete(tx, k) != had {
							t.Fatalf("Delete(%.8q) disagrees with model (had=%v)", k, had)
						}
						delete(work, k)
					case 3:
						v, ok := m.Get(tx, k)
						if w, had := work[k]; ok != had || v != w {
							t.Fatalf("Get(%.8q) = (%d bytes, %v), model (%d bytes, %v)", k, len(v), ok, len(w), had)
						}
					case 4:
						kvs := []PackedKV{
							{Key: k, Val: val(i, at(i+2))},
							{Key: keys[int(at(i+2))%len(keys)], Val: val(i+1, at(i+1))},
							{Key: k, Val: val(i+2, at(i+2)+1)},
						}
						m.Restore(tx, kvs)
						for _, kv := range kvs {
							work[kv.Key] = kv.Val
						}
					case 5:
						checkSnapshot(tx, work)
					}
				}
				if abort {
					return errFuzzAbort
				}
				return nil
			})
			if err != nil && err != errFuzzAbort {
				t.Fatal(err)
			}
			if !abort {
				model = work
			}
			pos = start + 3*nops
		}
		runTx(t, stm, func(tx *mvstm.Txn) error {
			checkSnapshot(tx, model)
			return nil
		})
		for _, k := range keys {
			w, had := model[k]
			v, found, _, ok := m.GetFast(k)
			if !ok || found != had || v != w {
				t.Fatalf("GetFast(%.8q) = (%d bytes, %v, ok=%v), model (%d bytes, %v)", k, len(v), found, ok, len(w), had)
			}
			v, found, _, ok = m.GetFastBytes([]byte(k))
			if !ok || found != had || v != w {
				t.Fatalf("GetFastBytes(%.8q) = (%d bytes, %v, ok=%v), model (%d bytes, %v)", k, len(v), found, ok, len(w), had)
			}
		}
	})
}
