// Package mempool is the chain's overload-safe front door: a bounded
// admission layer between clients and the commit pipeline. Every
// production permissioned system the paper surveys (Fabric most
// visibly — arXiv 1801.10228) learned the same lesson: the first thing
// to fall over under bursty or adversarial load is not consensus, it is
// the unbounded client queue in front of it. The pool therefore
// enforces three properties at admission time, before a transaction
// can cost the system anything downstream:
//
//   - bounded memory: a hard Capacity on outstanding transactions
//     (pooled + handed-off-but-uncommitted). When it is reached,
//     admission fast-fails with a typed *RejectError carrying a
//     retry-after hint derived from the observed drain rate, instead of
//     queueing and letting apply-queue depth and latency grow without
//     bound;
//   - fairness: a per-client fair-share quota (Capacity divided across
//     clients active within a sliding window) so one hot client cannot
//     occupy the whole pool and starve the rest;
//   - exactly-once handoff: transactions are deduplicated by digest
//     across their pooled-and-inflight lifetime, so a resubmitted
//     transaction is handed to consensus once and both submissions
//     settle from the same commit.
//
// Batches leave the pool on the ordering pipeline's own clock, a
// rent-or-buy rule with no tuning knob (see Cut): a full batch is
// handed off at once; a partial batch is handed off once nothing has
// been in flight (between handoff and Release) for as long as the last
// round took, so a batch waits about one round, the cost of ordering
// it, before paying for a round of its own; and BatchDeadline caps the
// wait of the oldest pooled transaction when the pipeline never goes
// idle. The commit path releases digests once their block commits,
// which re-opens capacity, ends rounds, and drives the drain-rate
// estimate behind retry-after hints.
package mempool

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"permchain/internal/obs"
	"permchain/internal/types"
)

// Typed admission errors. RejectError wraps the two shed causes so
// clients can errors.Is on the cause and still read the retry hint.
var (
	// ErrMempoolFull is the capacity shed: the pool holds Capacity
	// outstanding transactions and cannot accept more.
	ErrMempoolFull = errors.New("mempool: full")
	// ErrClientQuota is the fairness shed: this client already holds its
	// fair share of the pool while other clients are active.
	ErrClientQuota = errors.New("mempool: client quota exceeded")
	// ErrClosed is returned once the pool has shut down.
	ErrClosed = errors.New("mempool: closed")
)

// RejectError is an admission shed: the typed fast-fail the overload
// design calls for. Cause is ErrMempoolFull or ErrClientQuota (exposed
// via Unwrap, so errors.Is works); RetryAfter estimates when capacity
// should be available again, derived from the pool's observed drain
// rate.
type RejectError struct {
	Cause      error
	RetryAfter time.Duration
}

// Error renders the shed with its hint.
func (e *RejectError) Error() string {
	return fmt.Sprintf("%v (retry after %v)", e.Cause, e.RetryAfter.Round(time.Millisecond))
}

// Unwrap exposes the shed cause to errors.Is/errors.As.
func (e *RejectError) Unwrap() error { return e.Cause }

// IsReject reports whether err is an admission shed (capacity or
// quota), as opposed to a hard failure like ErrClosed.
func IsReject(err error) bool {
	return errors.Is(err, ErrMempoolFull) || errors.Is(err, ErrClientQuota)
}

// Config shapes a Pool.
type Config struct {
	// Capacity is the hard cap on outstanding transactions — pooled
	// plus handed-off-but-uncommitted. Default 4096.
	Capacity int
	// ClientQuota fixes each client's cap on outstanding transactions.
	// Zero (the default) selects the dynamic fair share:
	// Capacity / (clients active within ActivityWindow).
	ClientQuota int
	// ActivityWindow is how long a client stays "active" for the
	// dynamic fair-share divisor after its last submission. Default 30s.
	ActivityWindow time.Duration
	// BatchSize is the max transactions per handed-off batch.
	// Default 64 (core aligns it with Config.BlockSize).
	BatchSize int
	// BatchDeadline is an upper bound, not a batching period: a partial
	// batch normally leaves once the pipeline has idled for one round
	// (see Pool.Cut), and the deadline only hands it off when the
	// oldest pooled transaction has waited this long because the
	// pipeline never went idle — under overload or CPU contention the
	// rule thereby falls back to deadline batching. Default 20ms (core
	// aligns it with FlushEvery).
	BatchDeadline time.Duration
	// Obs receives admission/reject/occupancy/batch metrics. Nil
	// disables instrumentation.
	Obs *obs.Obs
}

func (c Config) defaulted() Config {
	if c.Capacity <= 0 {
		c.Capacity = 4096
	}
	if c.ActivityWindow <= 0 {
		c.ActivityWindow = 30 * time.Second
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 64
	}
	if c.BatchDeadline <= 0 {
		c.BatchDeadline = 20 * time.Millisecond
	}
	return c
}

// entry tracks one outstanding transaction from admission to release.
type entry struct {
	tx       *types.Transaction
	client   types.NodeID
	inflight bool // handed to consensus, awaiting commit
	admitted time.Time
}

// Stats is a point-in-time copy of the pool's occupancy accounting.
type Stats struct {
	// Occupancy is the current outstanding count (pooled + inflight);
	// MaxOccupancy is the high-water mark — the capacity invariant's
	// deterministic witness (MaxOccupancy <= Capacity, always).
	Occupancy    int
	MaxOccupancy int
	// Pooled counts transactions waiting for a batch; Inflight those
	// handed off and awaiting commit.
	Pooled   int
	Inflight int
	// Admitted/Deduped/RejectedFull/RejectedQuota are lifetime totals.
	Admitted      int64
	Deduped       int64
	RejectedFull  int64
	RejectedQuota int64
	// ActiveClients is the current fair-share divisor.
	ActiveClients int
}

// Pool is the bounded admission queue. Safe for concurrent use.
type Pool struct {
	cfg Config

	mu        sync.Mutex
	entries   map[types.Hash]*entry
	queue     []types.Hash // FIFO of pooled (not yet inflight) digests
	perClient map[types.NodeID]int
	lastSeen  map[types.NodeID]time.Time
	closed    bool

	stats Stats

	// ready is signalled (non-blocking) whenever the handoff decision
	// may have changed: the queue became non-empty or reached
	// BatchSize, or the in-flight set drained.
	ready chan struct{}

	// Round clock behind the idle rule. lastHandoff is when the newest
	// in-flight batch left; lastRound is how long the last round (the
	// handoff to the Release that drained the in-flight set) took;
	// idleSince is when that drain happened (New starts the pool idle,
	// with a zero round).
	lastHandoff time.Time
	lastRound   time.Duration
	idleSince   time.Time

	// Drain-rate EWMA (txs/sec released by commits), behind RetryAfter.
	drainRate   float64
	lastRelease time.Time
}

// New builds a pool from cfg (zero fields take defaults).
func New(cfg Config) *Pool {
	cfg = cfg.defaulted()
	return &Pool{
		cfg:       cfg,
		entries:   make(map[types.Hash]*entry),
		perClient: make(map[types.NodeID]int),
		lastSeen:  make(map[types.NodeID]time.Time),
		ready:     make(chan struct{}, 1),
		idleSince: time.Now(),
	}
}

// Config returns the pool's effective (defaulted) configuration.
func (p *Pool) Config() Config { return p.cfg }

// Ready returns the channel the drain loop selects on: it receives a
// token whenever Cut's answer may have changed without time passing —
// the first transaction pooled, a full batch waiting, or the in-flight
// set drained.
func (p *Pool) Ready() <-chan struct{} { return p.ready }

func (p *Pool) signal() {
	select {
	case p.ready <- struct{}{}:
	default:
	}
}

// quotaLocked returns this client's current cap. With ClientQuota set
// it is fixed; otherwise it is the dynamic fair share — Capacity
// divided by the number of clients active within ActivityWindow
// (including the caller), so a lone client may use the whole pool but
// can never starve a recently-seen peer out of its share.
func (p *Pool) quotaLocked(now time.Time) int {
	if p.cfg.ClientQuota > 0 {
		return p.cfg.ClientQuota
	}
	active := 0
	for id, seen := range p.lastSeen {
		if now.Sub(seen) > p.cfg.ActivityWindow {
			delete(p.lastSeen, id) // prune so the map stays bounded
			continue
		}
		active++
	}
	if active < 1 {
		active = 1
	}
	q := p.cfg.Capacity / active
	if q < 1 {
		q = 1
	}
	return q
}

// retryAfterLocked estimates when admission is worth retrying: the time
// for one batch to drain at the observed release rate, clamped to
// [1ms, 5s]. Before any commit has been observed it falls back to one
// batch deadline.
func (p *Pool) retryAfterLocked() time.Duration {
	if p.drainRate <= 0 {
		return p.cfg.BatchDeadline
	}
	d := time.Duration(float64(p.cfg.BatchSize) / p.drainRate * float64(time.Second))
	if d < time.Millisecond {
		d = time.Millisecond
	}
	if d > 5*time.Second {
		d = 5 * time.Second
	}
	return d
}

// Admit applies admission control to tx. On success it returns
// dup=false and tx is queued for the next batch; onDecided (if
// non-nil) runs under the pool lock after the admission decision but
// before the transaction can be handed off — core registers the
// receipt there, so the commit path can never settle a transaction
// before its receipt exists. A duplicate of a pooled or inflight
// digest returns dup=true with no new slot consumed: the transaction
// will be handed to consensus exactly once, and onDecided still runs
// so a second receipt can attach to the same pending commit.
//
// Sheds return a *RejectError (cause ErrMempoolFull or ErrClientQuota)
// carrying a retry-after hint; onDecided does not run on a shed.
func (p *Pool) Admit(tx *types.Transaction, onDecided func(dup bool)) (dup bool, err error) {
	digest := tx.Hash()
	now := time.Now()
	o := p.cfg.Obs

	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return false, ErrClosed
	}
	p.lastSeen[tx.Client] = now
	if _, ok := p.entries[digest]; ok {
		p.stats.Deduped++
		if onDecided != nil {
			onDecided(true)
		}
		p.mu.Unlock()
		o.Inc("mempool/deduped")
		return true, nil
	}
	if p.stats.Occupancy >= p.cfg.Capacity {
		p.stats.RejectedFull++
		retry := p.retryAfterLocked()
		p.mu.Unlock()
		o.Inc("mempool/rejected_full")
		// Debug, not Warn: sheds are by design high-volume under
		// overload, and the counter above is the operational signal.
		o.Logger("mempool").Debug("capacity shed",
			"client", int(tx.Client), "retry_after", retry)
		return false, &RejectError{Cause: ErrMempoolFull, RetryAfter: retry}
	}
	if p.perClient[tx.Client] >= p.quotaLocked(now) {
		p.stats.RejectedQuota++
		retry := p.retryAfterLocked()
		p.mu.Unlock()
		o.Inc("mempool/rejected_quota")
		o.Logger("mempool").Debug("quota shed",
			"client", int(tx.Client), "retry_after", retry)
		return false, &RejectError{Cause: ErrClientQuota, RetryAfter: retry}
	}

	p.entries[digest] = &entry{tx: tx, client: tx.Client, admitted: now}
	p.queue = append(p.queue, digest)
	p.perClient[tx.Client]++
	p.stats.Admitted++
	p.stats.Occupancy++
	p.stats.Pooled++
	if p.stats.Occupancy > p.stats.MaxOccupancy {
		p.stats.MaxOccupancy = p.stats.Occupancy
	}
	wake := len(p.queue) == 1 || len(p.queue) == p.cfg.BatchSize
	occ := p.stats.Occupancy
	if onDecided != nil {
		onDecided(false)
	}
	p.mu.Unlock()

	o.Inc("mempool/admitted")
	o.SetGauge("mempool/occupancy", int64(occ))
	if wake {
		p.signal()
	}
	return false, nil
}

// Handoff reasons: why a batch left the pool, counted as
// mempool/handoff_<reason>.
const (
	handoffFull     = "mempool/handoff_full"
	handoffIdle     = "mempool/handoff_idle"
	handoffDeadline = "mempool/handoff_deadline"
	handoffFlush    = "mempool/handoff_flush"
)

// Cut applies the handoff rule at the current time. It pops the next
// batch (up to max, capped at BatchSize) when one is due:
//
//   - full: a whole batch is pooled;
//   - idle: nothing is in flight and the pipeline has been idle for at
//     least as long as the last round took — rent-or-buy: waiting one
//     round's cost before buying a round of its own keeps a partial
//     batch from paying for consensus alone, while an idle pipeline
//     never holds work for longer than the round it would save;
//   - deadline: the oldest pooled transaction has waited BatchDeadline
//     (the pipeline never went idle, e.g. a predecessor never settles).
//
// Otherwise it returns nil and how long until the rule can fire with
// no further event (0 when the pool is empty); admission, a full batch
// and the drain of the in-flight set signal Ready instead.
func (p *Pool) Cut(max int) (batch []*types.Transaction, wait time.Duration) {
	now := time.Now()
	p.mu.Lock()
	n := len(p.queue)
	if n == 0 {
		p.mu.Unlock()
		return nil, 0
	}
	size := p.batchCap(max)
	var reason string
	switch age := now.Sub(p.entries[p.queue[0]].admitted); {
	case n >= size:
		reason = handoffFull
	case age >= p.cfg.BatchDeadline:
		reason = handoffDeadline
	case p.stats.Inflight == 0 && now.Sub(p.idleSince) >= p.lastRound:
		reason = handoffIdle
	default:
		wait = p.cfg.BatchDeadline - age
		if p.stats.Inflight == 0 {
			wait = min(wait, p.lastRound-now.Sub(p.idleSince))
		}
		p.mu.Unlock()
		return nil, wait
	}
	return p.popLocked(now, size, reason), 0
}

// NextBatch pops up to max pooled transactions (FIFO) regardless of the
// handoff rule — the flush path that empties the pool on demand. They
// stay counted against capacity and their client's quota until
// Release. Returns nil when nothing is pooled.
func (p *Pool) NextBatch(max int) []*types.Transaction {
	now := time.Now()
	p.mu.Lock()
	if len(p.queue) == 0 {
		p.mu.Unlock()
		return nil
	}
	return p.popLocked(now, p.batchCap(max), handoffFlush)
}

func (p *Pool) batchCap(max int) int {
	if max <= 0 || max > p.cfg.BatchSize {
		return p.cfg.BatchSize
	}
	return max
}

// popLocked hands off up to size pooled transactions, marks them
// inflight and starts (or extends) the round. It unlocks p.mu.
func (p *Pool) popLocked(now time.Time, size int, reason string) []*types.Transaction {
	n := min(len(p.queue), size)
	batch := make([]*types.Transaction, 0, n)
	var waited time.Duration
	for _, digest := range p.queue[:n] {
		e := p.entries[digest]
		e.inflight = true
		batch = append(batch, e.tx)
		waited += now.Sub(e.admitted)
	}
	p.queue = p.queue[n:]
	p.stats.Pooled -= n
	p.stats.Inflight += n
	p.lastHandoff = now
	p.mu.Unlock()

	o := p.cfg.Obs
	o.Inc("mempool/batches")
	o.Inc(reason)
	o.ObserveInt("mempool/batch_size", int64(n))
	// One representative sample per batch keeps the histogram cheap;
	// the mean pooled wait is what the handoff rule sets.
	o.Observe("mempool/admit_to_handoff", waited/time.Duration(n))
	return batch
}

// Release removes committed transactions from the pool's accounting:
// capacity re-opens, per-client counts drop, and the drain-rate EWMA
// behind retry-after hints advances. Digests the pool does not know
// (recovery replays, pre-mempool submissions) are ignored. The commit
// path must call Release before settling receipts, so a resubmission
// racing the commit either attaches to the pending entry (and settles
// with it) or is admitted fresh after the entry is gone — never lost
// in between.
func (p *Pool) Release(txs []*types.Transaction) {
	if len(txs) == 0 {
		return
	}
	now := time.Now()
	p.mu.Lock()
	released := 0
	busy := p.stats.Inflight > 0
	for _, tx := range txs {
		digest := tx.Hash()
		e, ok := p.entries[digest]
		if !ok {
			continue
		}
		delete(p.entries, digest)
		if !e.inflight {
			// Committed without handoff (possible only if an identical
			// digest reached consensus some other way); take it out of
			// the FIFO too so NextBatch never sees a released digest.
			p.dropFromQueueLocked(digest)
			p.stats.Pooled--
		} else {
			p.stats.Inflight--
		}
		p.perClient[e.client]--
		if p.perClient[e.client] <= 0 {
			delete(p.perClient, e.client)
		}
		p.stats.Occupancy--
		released++
	}
	if released > 0 {
		if !p.lastRelease.IsZero() {
			if dt := now.Sub(p.lastRelease).Seconds(); dt > 0 {
				sample := float64(released) / dt
				if p.drainRate == 0 {
					p.drainRate = sample
				} else {
					p.drainRate = 0.8*p.drainRate + 0.2*sample
				}
			}
		}
		p.lastRelease = now
	}
	drained := busy && p.stats.Inflight == 0
	if drained {
		// The round that began at the newest handoff ends here; the
		// pipeline is idle until the next one.
		p.lastRound = now.Sub(p.lastHandoff)
		p.idleSince = now
	}
	wake := drained && len(p.queue) > 0
	occ := p.stats.Occupancy
	p.mu.Unlock()
	if wake {
		p.signal()
	}
	if released > 0 {
		p.cfg.Obs.Add("mempool/released", int64(released))
		p.cfg.Obs.SetGauge("mempool/occupancy", int64(occ))
	}
}

// dropFromQueueLocked removes one digest from the FIFO. Rare path (see
// Release); O(n) is fine.
func (p *Pool) dropFromQueueLocked(digest types.Hash) {
	for i, d := range p.queue {
		if d == digest {
			p.queue = append(p.queue[:i], p.queue[i+1:]...)
			return
		}
	}
}

// DrainRate returns the EWMA of commit-release throughput (txs/sec)
// that retry-after hints are computed from; zero before any commit.
func (p *Pool) DrainRate() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.drainRate
}

// Stats returns a copy of the pool's accounting.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.stats
	s.ActiveClients = len(p.lastSeen)
	return s
}

// Close shuts admission down: subsequent Admits return ErrClosed and
// pooled transactions are dropped (their receipts are the caller's to
// orphan — core settles them with ErrStopped). Idempotent.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.entries = make(map[types.Hash]*entry)
	p.queue = nil
	p.perClient = make(map[types.NodeID]int)
	p.stats.Occupancy = 0
	p.stats.Pooled = 0
	p.stats.Inflight = 0
	p.mu.Unlock()
	p.cfg.Obs.SetGauge("mempool/occupancy", 0)
}
