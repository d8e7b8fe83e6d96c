package sim

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// queueCases records which of the two-tier queue's paths a schedule reached.
type queueCases struct {
	spill     bool // a push into a full front moved the front's largest event to the heap
	straight  bool // a push went straight to the heap
	heapPop   bool // a pop came from the heap with the front empty
	deepDrain bool // the final drain started with events in both tiers
}

// replayQueueSchedule decodes b into pushes and pops on an eventQueue and
// checks every pop against an oracle kept sorted, and the tiers' layout and
// vacated slots after every step (checkQueueTiers). Each byte is one step:
//   - below 0x80, a push at t = b>>1 (0–63) in band b&1;
//   - 0x80–0xBF, a burst of (b&0x3f)+1 pushes spread over t 0–63, which is
//     how a short input crosses the front's capacity;
//   - 0xC0 and up, (b&0x3f)+1 pops, as many as the queue holds.
//
// The queue is then drained. Keys collide on t and band; seq breaks ties, as
// in the kernel.
func replayQueueSchedule(b []byte) (queueCases, error) {
	var (
		q      eventQueue
		oracle []event
		seq    uint64
		cases  queueCases
		owner  = &Proc{}
		noop   = func(any) {}
	)
	push := func(t Time, band uint64) error {
		seq++
		e := event{t: t, gb: band, seq: seq, p: owner, fn: noop, arg: owner}
		full, backLen := len(q.front) == frontCap, len(q.back)
		straight := backLen > 0 && keyLess(&q.back[0], &e) || full && keyLess(&q.front[0], &e)
		heap := q.push(&e)
		i := sort.Search(len(oracle), func(i int) bool { return keyLess(&e, &oracle[i]) })
		oracle = append(oracle, event{})
		copy(oracle[i+1:], oracle[i:])
		oracle[i] = e
		if grew := len(q.back) == backLen+1; heap != grew {
			return fmt.Errorf("push of (%d,%d,%d) reported heap=%v, the heap grew %v", t, band, seq, heap, grew)
		}
		if heap {
			cases.straight = cases.straight || straight
			cases.spill = cases.spill || !straight
		}
		return checkQueueTiers(&q)
	}
	pop := func() error {
		want := oracle[0]
		oracle = oracle[1:]
		if len(q.front) == 0 {
			cases.heapPop = true
		}
		if m := q.min(); m.seq != want.seq {
			return fmt.Errorf("min has seq %d, the oracle's is %d", m.seq, want.seq)
		}
		var got event
		q.pop(&got)
		if got.t != want.t || got.band() != want.band() || got.seq != want.seq {
			return fmt.Errorf("popped (%d,%d,%d), the oracle says (%d,%d,%d)",
				got.t, got.band(), got.seq, want.t, want.band(), want.seq)
		}
		if got.p != owner || got.arg != any(owner) || got.fn == nil {
			return fmt.Errorf("popped event (%d,%d,%d) lost its body", got.t, got.band(), got.seq)
		}
		if q.len() != len(oracle) {
			return fmt.Errorf("queue holds %d events, the oracle %d", q.len(), len(oracle))
		}
		return checkQueueTiers(&q)
	}
	for i, c := range b {
		var err error
		switch {
		case c < 0x80:
			err = push(Time(c>>1), uint64(c&1))
		case c < 0xC0:
			for j := 0; j <= int(c&0x3f) && err == nil; j++ {
				err = push(Time((j*37+int(c))%64), uint64(j&1))
			}
		default:
			for j := 0; j <= int(c&0x3f) && len(oracle) > 0 && err == nil; j++ {
				err = pop()
			}
		}
		if err != nil {
			return cases, fmt.Errorf("byte %d (%#x): %v", i, c, err)
		}
	}
	cases.deepDrain = len(q.front) > 0 && len(q.back) > 0
	for len(oracle) > 0 {
		if err := pop(); err != nil {
			return cases, fmt.Errorf("drain: %v", err)
		}
	}
	return cases, nil
}

// FuzzEventQueue holds the two-tier queue to a sort over schedules the fuzzer
// writes (replayQueueSchedule).
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x10, 0x11, 0x10, 0xC0, 0x00, 0xC1})
	f.Fuzz(func(t *testing.T, b []byte) {
		if _, err := replayQueueSchedule(b); err != nil {
			t.Fatal(err)
		}
	})
}

// TestEventQueueFuzzSeedsReachEveryPath replays the checked-in FuzzEventQueue
// corpus and requires it, taken together, to reach each path of the queue: a
// full-front spill, a push straight to the heap, a pop from the heap with the
// front empty, and a drain of both tiers.
func TestEventQueueFuzzSeedsReachEveryPath(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzEventQueue", "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no FuzzEventQueue seeds: %v", err)
	}
	var all queueCases
	for _, name := range files {
		b := readFuzzSeed(t, name)
		c, err := replayQueueSchedule(b)
		if err != nil {
			t.Fatalf("%s: %v", filepath.Base(name), err)
		}
		all.spill = all.spill || c.spill
		all.straight = all.straight || c.straight
		all.heapPop = all.heapPop || c.heapPop
		all.deepDrain = all.deepDrain || c.deepDrain
	}
	if all != (queueCases{true, true, true, true}) {
		t.Fatalf("the seeds miss a path: %+v", all)
	}
}

// readFuzzSeed reads a one-[]byte corpus file in the "go test fuzz v1" format.
func readFuzzSeed(t *testing.T, name string) []byte {
	t.Helper()
	fh, err := os.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	sc := bufio.NewScanner(fh)
	sc.Buffer(nil, 1<<20)
	var lines []string
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) != 2 || lines[0] != "go test fuzz v1" ||
		!strings.HasPrefix(lines[1], "[]byte(") || !strings.HasSuffix(lines[1], ")") {
		t.Fatalf("%s: not a one-[]byte corpus file", name)
	}
	s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return []byte(s)
}

// BenchmarkEventQueue measures one pop of the minimum plus one push of a timer
// a uniform-random delay after it, in steady state at a fixed number of pending
// events, for the kernel's two-tier queue and for the binary heap alone. At 16
// pending events the front holds them all; from 256 on most of them lie in the
// heap behind it.
func BenchmarkEventQueue(b *testing.B) {
	for _, depth := range []int{16, 256, 4096, 65536} {
		// The delays come from a table, so the timed loop draws no random
		// numbers; their span grows with depth, keeping the pending
		// timers' density the same.
		delays := make([]Time, 1<<12)
		rng := rand.New(rand.NewSource(int64(depth)))
		for i := range delays {
			delays[i] = 1 + Time(rng.Int63n(int64(depth)*64))
		}
		fill := func(push func(*event)) uint64 {
			for i := 0; i < depth; i++ {
				e := event{t: delays[i%len(delays)], gb: 1, seq: uint64(i + 1)}
				push(&e)
			}
			return uint64(depth)
		}
		b.Run(fmt.Sprintf("queue/%d", depth), func(b *testing.B) {
			var q eventQueue
			seq := fill(func(e *event) { q.push(e) })
			var top event
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q.pop(&top)
				seq++
				e := event{t: top.t + delays[i&(len(delays)-1)], gb: 1, seq: seq}
				q.push(&e)
			}
		})
		b.Run(fmt.Sprintf("heap/%d", depth), func(b *testing.B) {
			var q eventHeap
			seq := fill(q.push)
			var top event
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q.pop(&top)
				seq++
				e := event{t: top.t + delays[i&(len(delays)-1)], gb: 1, seq: seq}
				q.push(&e)
			}
		})
	}
}
