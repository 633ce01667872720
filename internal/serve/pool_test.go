package serve

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"entk"
	"entk/internal/campaign"
)

// TestPoolLaunchFinishHoldsClock hammers the one seam between wall
// time and a pool's virtual time: two wall-clock goroutines launch
// empty campaign bodies back to back onto an allocated pool, so
// launches keep landing while the previous body is finishing. No body
// ever sleeps, so the pool's clock may not move at all — the pilots'
// boot and walltime timers are pending the whole time, and a single
// instant with neither a campaign process nor the phantom registered
// lets the clock run free to them.
func TestPoolLaunchFinishHoldsClock(t *testing.T) {
	c, err := campaign.Parse(bytes.NewReader(smallCampaign("p", 0)))
	if err != nil {
		t.Fatal(err)
	}
	p := newPool("pool1", "hammer", campaign.Options{})

	// The first campaign allocates the set and runs nothing.
	type first struct {
		at  time.Duration
		err error
	}
	allocated := make(chan first, 1)
	p.launch(c, func(_ *entk.ResourceSet, err error) { allocated <- first{p.v.Now(), err} })
	f := <-allocated
	if f.err != nil {
		t.Fatal(f.err)
	}

	const launches = 60000
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ran := make(chan time.Duration, 1)
			for i := 0; i < launches/2; i++ {
				p.launch(c, func(*entk.ResourceSet, error) { ran <- p.v.Now() })
				if now := <-ran; now != f.at {
					t.Errorf("launch %d: pool clock at %v, allocated at %v: it advanced with no campaign running", i, now, f.at)
					return
				}
			}
		}()
	}
	wg.Wait()
	if now := p.v.Now(); now != f.at {
		t.Errorf("pool clock at %v after %d empty launches, allocated at %v", now, launches, f.at)
	}
}
