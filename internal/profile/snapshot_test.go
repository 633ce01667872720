package profile

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// tickClock is a fake clock handing out strictly increasing timestamps,
// one per Now() call, so every recorded event carries a unique time and
// per-entity ordering is checkable exactly.
type tickClock struct{ n atomic.Int64 }

func (c *tickClock) Now() time.Duration { return time.Duration(c.n.Add(1)) }

// TestConcurrentSnapshotHammer hammers Snapshot while recorders are
// running, on both layouts: every snapshot must contain at least the
// events already recorded when it was taken, be internally consistent
// (every id resolves, per-entity timestamps strictly increase, count
// matches the visit), and serialise through WriteTo/ReadFrom losslessly
// — the live-trace contract the service's /trace endpoint leans on.
func TestConcurrentSnapshotHammer(t *testing.T) {
	for _, l := range layouts {
		t.Run(l.name, func(t *testing.T) {
			const (
				recorders = 8
				perG      = 4000
				perOwner  = 6 // entities per recorder, spread over the stripes
				entities  = recorders * perOwner
				snaps     = 40
			)
			clock := &tickClock{}
			p := l.new(clock)
			// Each entity has a single writer: Now() and the store append
			// are not one atomic step, so only single-writer entities have
			// strictly increasing timestamps to assert on.
			eids := make([]EntityID, entities)
			for i := range eids {
				eids[i] = p.Intern(fmt.Sprintf("unit.%06d", i))
			}
			names := []NameID{
				p.InternName("exec_start"),
				p.InternName("exec_stop"),
				p.InternName("state_DONE"),
			}

			var recorded atomic.Int64 // events fully recorded so far
			var wg sync.WaitGroup
			for g := 0; g < recorders; g++ {
				g := g
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < perG; i++ {
						if i%97 == 0 {
							// Exercise the string path too: it interns new
							// entities concurrently with snapshots.
							p.Record(fmt.Sprintf("late.%03d.%03d", g, i), "seen")
						} else {
							p.RecordID(eids[g*perOwner+i%perOwner], names[i%len(names)])
						}
						recorded.Add(1)
					}
				}()
			}

			check := func(snap *Profiler, atLeast int64) {
				t.Helper()
				if got := int64(snap.EventCount()); got < atLeast {
					t.Fatalf("snapshot holds %d events, %d were recorded before it", got, atLeast)
				}
				visited := 0
				lastT := make(map[string]time.Duration)
				for _, e := range snap.Events() { // resolves every id
					visited++
					if e.Name == "" || e.Entity == "" {
						t.Fatal("snapshot event resolved to empty string")
					}
					if prev, ok := lastT[e.Entity]; ok && e.T <= prev {
						t.Fatalf("entity %s out of order: %v after %v", e.Entity, e.T, prev)
					}
					lastT[e.Entity] = e.T
				}
				if visited != snap.EventCount() {
					t.Fatalf("visited %d events, count says %d", visited, snap.EventCount())
				}
			}

			for i := 0; i < snaps; i++ {
				atLeast := recorded.Load()
				check(p.Snapshot(), atLeast)
			}
			wg.Wait()

			// Quiescent now: the final snapshot must match the live
			// profiler exactly and round-trip through the dump format.
			snap := p.Snapshot()
			if snap.EventCount() != p.EventCount() || int64(p.EventCount()) != int64(recorders*perG) {
				t.Fatalf("final counts: snap=%d live=%d want=%d",
					snap.EventCount(), p.EventCount(), recorders*perG)
			}
			check(snap, int64(recorders*perG))
			if got, want := snap.Count("unit.", "exec_start"), p.Count("unit.", "exec_start"); got != want {
				t.Fatalf("snapshot query diverges: Count=%d live=%d", got, want)
			}
			var buf bytes.Buffer
			if _, err := snap.WriteTo(&buf); err != nil {
				t.Fatalf("WriteTo on snapshot: %v", err)
			}
			reloaded := l.new(clock)
			if _, err := reloaded.ReadFrom(bytes.NewReader(buf.Bytes())); err != nil {
				t.Fatalf("ReadFrom of snapshot dump: %v", err)
			}
			if reloaded.EventCount() != snap.EventCount() {
				t.Fatalf("dump round trip lost events: %d vs %d", reloaded.EventCount(), snap.EventCount())
			}

			// A snapshot is a read view: recording into it must refuse
			// loudly instead of corrupting the frozen chunks.
			func() {
				defer func() {
					if recover() == nil {
						t.Fatal("Record on a snapshot did not panic")
					}
				}()
				snap.Record("x", "y")
			}()
		})
	}
}

// TestSnapshotMidChunkTail pins the copy-on-read boundary: events
// recorded after a snapshot must never appear in it, even when they land
// in the same chunk the snapshot's tail copy came from.
func TestSnapshotMidChunkTail(t *testing.T) {
	clock := &tickClock{}
	p := New(clock)
	e := p.Intern("unit.000001")
	n := p.InternName("tick")
	for i := 0; i < 100; i++ { // well inside the first chunk
		p.RecordID(e, n)
	}
	snap := p.Snapshot()
	for i := 0; i < 500; i++ {
		p.RecordID(e, n)
	}
	if got := snap.EventCount(); got != 100 {
		t.Fatalf("snapshot grew after the fact: %d events, want 100", got)
	}
	if got := p.EventCount(); got != 600 {
		t.Fatalf("live profiler lost events: %d, want 600", got)
	}
	if last, ok := snap.LastID(e, n); !ok || last != time.Duration(100) {
		t.Fatalf("snapshot tail = %v (ok=%v), want 100", last, ok)
	}
}
