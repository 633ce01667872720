// A pool is one shared simulation: a virtual clock plus the allocated
// ResourceSet that campaigns with the same resource signature run on.
//
// The daemon lives in wall-clock time but every pool runs in virtual
// time, and the two meet at exactly one seam: launching a campaign
// into the pool's simulation. Two invariants keep that seam safe.
//
// First, an idle pool's clock must not advance. The virtual clock
// advances whenever its runnable count drops to zero, and an allocated
// pool always has pending timers (the pilots' walltime expiries), so a
// pool with no campaigns would fast-forward to those timers and kill
// its own pilots between requests. The pool therefore attaches a
// phantom registered process the moment its last campaign finishes:
// with the phantom counted runnable (it is not a goroutine, only a
// registration), the count never reaches zero and the clock freezes at
// the instant the pool went idle.
//
// Second, the runnable count must never transiently hit zero during a
// launch. "The pool has a campaign" (active) and "the clock has a
// runnable process or the phantom" change in one critical section under
// the pool's lock, on both sides: launch counts the campaign, registers
// its process (v.Go) and only then detaches the phantom, all before
// unlocking; the finishing campaign uncounts itself and attaches the
// phantom from inside its own still-registered process, before that
// process deregisters. Were launch to register after unlocking, a
// campaign finishing in between would see a non-zero count, attach no
// phantom and deregister — and the clock would run free to the pilots'
// walltime timers. Lock order is pool lock, then engine, both ways.
//
// In-simulation waits use vclock primitives only: later campaigns wait
// for the first campaign's Allocate on a vclock.Event — a registered
// process parking on a plain Go channel would freeze the clock for
// everyone else.
//
// Real-mode pools run the same seam on the wall clock, where Attach/
// Detach are no-ops and time cannot be frozen: the phantom is harmless
// but an idle real pool's pilots keep burning walltime toward expiry.
// That is physics, not a bug — serve.Options.Mode documents it.

package serve

import (
	"encoding/json"
	"fmt"
	"sync"

	"entk"
	"entk/internal/campaign"
	"entk/internal/vclock"
)

// pool is one shared virtual clock + ResourceSet. Campaigns whose
// resource signature hashes to the same key share a pool; the first
// campaign to arrive allocates the set, later ones reuse it.
type pool struct {
	name  string // stable daemon-scoped label ("pool1", ...)
	key   string // canonical resource signature
	v     entk.Clock
	opts  campaign.Options
	ready *vclock.Event // fired once the first campaign's Allocate settled

	mu       sync.Mutex
	rs       *entk.ResourceSet // nil until the first Allocate succeeds
	allocErr error             // sticky: a pool whose Allocate failed stays broken
	started  bool              // a first campaign has been launched
	active   int               // campaigns launched and not yet finished
	idle     bool              // phantom currently attached
}

// poolSignature is the canonical identity of a pool: everything that
// is fixed per ResourceSet. Two campaigns land on the same pool iff
// these all match — placement and retry budget are set on the
// set/config once, and the execution mode is per clock.
type poolSignature struct {
	Resource    string           `json:"resource,omitempty"`
	Cores       int              `json:"cores,omitempty"`
	WalltimeMin int              `json:"walltime_min,omitempty"`
	Resources   []campaign.Pilot `json:"resources,omitempty"`
	Placement   string           `json:"placement,omitempty"`
	MaxRetries  int              `json:"max_retries,omitempty"`
	Mode        string           `json:"mode,omitempty"`
}

// poolKey canonicalises a campaign's resource signature.
func poolKey(c *campaign.Campaign, opts campaign.Options) string {
	sig := poolSignature{
		Resource:    c.Resource,
		Cores:       c.Cores,
		WalltimeMin: c.WalltimeMin,
		Resources:   c.Resources,
		Placement:   c.Placement,
	}
	if opts.Mode == campaign.ModeReal {
		sig.Mode = opts.Mode.String()
	}
	if c.Runtime != nil {
		sig.MaxRetries = c.Runtime.MaxRetries
	}
	b, err := json.Marshal(sig)
	if err != nil {
		// The signature is plain data; Marshal cannot fail on it.
		panic(fmt.Sprintf("serve: pool signature: %v", err))
	}
	return string(b)
}

func newPool(name, key string, opts campaign.Options) *pool {
	v := opts.NewClock()
	return &pool{
		name:  name,
		key:   key,
		v:     v,
		opts:  opts,
		ready: vclock.NewEvent(v, "pool "+name+" allocated"),
	}
}

// launch runs body as a campaign process of the pool's simulation. The
// first launch builds and allocates the ResourceSet from c (so a fresh
// pool replays campaign.Run's exact Allocate sequence from t=0 —
// that is what makes the first campaign's report byte-identical to a
// library run); later launches wait for that allocation and reuse the
// set. body receives the allocated set, or the sticky allocation
// error. launch may be called from any wall-clock goroutine.
func (p *pool) launch(c *campaign.Campaign, body func(rs *entk.ResourceSet, err error)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	first := !p.started
	p.started = true
	p.active++
	p.v.Go(func() {
		defer p.finish()
		if first {
			rs, err := c.Bind(p.v, p.opts)
			if err == nil {
				err = rs.Allocate()
			}
			p.mu.Lock()
			if err != nil {
				p.allocErr = fmt.Errorf("serve: pool %s allocation: %w", p.name, err)
			} else {
				p.rs = rs
			}
			p.mu.Unlock()
			p.ready.Fire()
		} else {
			p.ready.Wait()
		}
		p.mu.Lock()
		rs, err := p.rs, p.allocErr
		p.mu.Unlock()
		body(rs, err)
	})
	if p.idle {
		// The new process is already counted runnable; dropping the
		// phantom now can never zero the count.
		p.idle = false
		p.v.Detach()
	}
}

// finish is the launched process's last act (before its own
// deregistration): when the pool just went idle it attaches the
// phantom, freezing the clock at the current instant until the next
// launch.
func (p *pool) finish() {
	p.mu.Lock()
	p.active--
	if p.active == 0 {
		p.v.Attach()
		p.idle = true
	}
	p.mu.Unlock()
}
