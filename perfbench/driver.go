package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"permchain/internal/types"
)

// Outcome is how one offered transaction ended.
type Outcome uint32

const (
	// Unsettled: admitted, but no settlement arrived before the drain
	// deadline.
	Unsettled Outcome = iota
	// Committed: executed and durable (on durable chains).
	Committed
	// Aborted: concurrency control refused it (XOV MVCC, 2PC abort).
	Aborted
	// Failed: its own payload failed (bad op, insufficient balance).
	Failed
	// Orphaned: the receipt settled with an error, e.g. the chain
	// stopped underneath it.
	Orphaned
	// Shed: admission control refused the submission.
	Shed
	// SubmitError: the submission failed for another reason.
	SubmitError
	numOutcomes
)

var outcomeNames = [numOutcomes]string{"unsettled", "committed", "aborted", "failed", "orphaned", "shed", "submit_error"}

func (o Outcome) String() string { return outcomeNames[o] }

// SubmitFunc hands tx to the system under test and arranges for settle
// to run exactly once, on any goroutine, when its fate is known. It must
// not wait for the commit. When it returns an error, settle never runs.
type SubmitFunc func(tx *types.Transaction, settle func(Outcome)) error

// Clock is the driver's time source, injectable so tests can pin the
// schedule and inject stalls.
type Clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

func (wallClock) SleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// Run records one driver run. Per offered transaction it keeps when the
// transaction was due (its intended send time), when the driver actually
// submitted it, when it settled and how. Latency is measured from the
// intended time, so a stall in the system or in the driver is charged to
// every transaction scheduled behind it (coordinated-omission safe).
type Run struct {
	clk        Clock
	txs        []*types.Transaction
	submit     SubmitFunc
	isShed     func(error) bool
	timeSubmit bool

	start     time.Time
	intended  []time.Duration // offsets from start
	submitted []time.Duration
	submitDur []time.Duration // only with timeSubmit
	settledAt []atomic.Int64  // offset from start, in ns
	outcome   []atomic.Uint32
	offered   int
	wakeups   int

	pending       sync.WaitGroup
	settles       atomic.Int64 // settle callbacks that delivered an outcome
	doubleSettles atomic.Int64 // settle callbacks after the first for a tx
}

func newRun(clk Clock, txs []*types.Transaction, submit SubmitFunc, isShed func(error) bool, timeSubmit bool) *Run {
	r := &Run{
		clk: clk, txs: txs, submit: submit, isShed: isShed, timeSubmit: timeSubmit,
		intended:  make([]time.Duration, len(txs)),
		submitted: make([]time.Duration, len(txs)),
		settledAt: make([]atomic.Int64, len(txs)),
		outcome:   make([]atomic.Uint32, len(txs)),
	}
	if timeSubmit {
		r.submitDur = make([]time.Duration, len(txs))
	}
	return r
}

// offer submits transaction i, due at intended. onSettled, when set,
// runs after the settlement is recorded, with its offset from start.
func (r *Run) offer(i int, intended time.Duration, onSettled func(at time.Duration)) {
	t0 := r.clk.Now()
	r.intended[i] = intended
	r.submitted[i] = t0.Sub(r.start)
	r.pending.Add(1)
	err := r.submit(r.txs[i], func(o Outcome) {
		at := r.clk.Now().Sub(r.start)
		if !r.outcome[i].CompareAndSwap(uint32(Unsettled), uint32(o)) {
			r.doubleSettles.Add(1)
			return
		}
		r.settledAt[i].Store(int64(at))
		r.settles.Add(1)
		r.pending.Done()
		if onSettled != nil {
			onSettled(at)
		}
	})
	if r.timeSubmit {
		r.submitDur[i] = r.clk.Now().Sub(t0)
	}
	if err != nil {
		o := SubmitError
		if r.isShed != nil && r.isShed(err) {
			o = Shed
		}
		r.outcome[i].Store(uint32(o))
		r.pending.Done()
		if onSettled != nil {
			onSettled(r.clk.Now().Sub(r.start))
		}
	}
}

// wait blocks until every admitted transaction has settled or timeout
// elapses, reporting whether all settled.
func (r *Run) wait(timeout time.Duration) bool {
	done := make(chan struct{})
	go func() {
		r.pending.Wait()
		close(done)
	}()
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-done:
		return true
	case <-t.C:
		return false
	}
}

// runOpenLoop offers every transaction in txs at a fixed rate. At each
// wake-up it submits every transaction already due, then sleeps until
// the next one is due; a late wake-up therefore never delays the
// schedule, it only shows up as driver lag and as latency.
func runOpenLoop(clk Clock, rate float64, txs []*types.Transaction, submit SubmitFunc, isShed func(error) bool, timeSubmit bool) *Run {
	r := newRun(clk, txs, submit, isShed, timeSubmit)
	interval := time.Duration(float64(time.Second) / rate)
	r.start = clk.Now()
	next := 0
	for next < len(txs) {
		r.wakeups++
		due := int(clk.Now().Sub(r.start)/interval) + 1
		if due > len(txs) {
			due = len(txs)
		}
		for ; next < due; next++ {
			r.offer(next, time.Duration(next)*interval, nil)
		}
		if next < len(txs) {
			clk.SleepUntil(r.start.Add(time.Duration(next) * interval))
		}
	}
	r.offered = len(txs)
	return r
}

// runClosedLoop keeps clients transactions outstanding for window: each
// client sends its next transaction once the previous one settled. At
// most submitters goroutines call submit. A transaction's intended send
// time is the moment its client became ready, so time spent waiting for
// a free submitter counts as latency. Clients stop sending at the end of
// the window; the call returns once every submitter has stopped or
// window+drain has passed.
func runClosedLoop(clk Clock, clients, submitters int, window, drain time.Duration, txs []*types.Transaction, submit SubmitFunc, isShed func(error) bool, timeSubmit bool) *Run {
	r := newRun(clk, txs, submit, isShed, timeSubmit)
	r.start = clk.Now()
	// One slot per client: a client is either queued here or has exactly
	// one transaction in flight, so a send never blocks.
	ready := make(chan time.Duration, clients)
	for c := 0; c < clients; c++ {
		ready <- 0
	}
	requeue := func(at time.Duration) { ready <- at }
	stop := make(chan struct{})
	deadline := time.AfterFunc(window+drain, func() { close(stop) })
	defer deadline.Stop()

	var next atomic.Int64
	var wg sync.WaitGroup
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				var at time.Duration
				select {
				case at = <-ready:
				case <-stop:
					return
				}
				if clk.Now().Sub(r.start) >= window {
					return
				}
				i := int(next.Add(1) - 1)
				if i >= len(txs) {
					return
				}
				r.offer(i, at, requeue)
			}
		}()
	}
	wg.Wait()
	r.offered = int(next.Load())
	if r.offered > len(txs) {
		r.offered = len(txs)
	}
	return r
}

// Tally is a run's accounting: every offered transaction lands in
// exactly one outcome bucket.
type Tally struct {
	Offered  int
	Outcomes [numOutcomes]int
}

// NotCommitted counts offered transactions that did not commit.
func (t Tally) NotCommitted() int { return t.Offered - t.Outcomes[Committed] }

// Errors counts transactions that failed for a reason other than a
// concurrency-control abort.
func (t Tally) Errors() int { return t.NotCommitted() - t.Outcomes[Aborted] }

func (r *Run) tally() Tally {
	t := Tally{Offered: r.offered}
	for i := 0; i < r.offered; i++ {
		t.Outcomes[r.outcome[i].Load()]++
	}
	return t
}

// latency returns transaction i's settle time minus its intended time.
func (r *Run) latency(i int) time.Duration {
	return time.Duration(r.settledAt[i].Load()) - r.intended[i]
}

// committedLatencies returns the sorted commit latencies in ms.
func (r *Run) committedLatencies(keep func(i int) bool) []float64 {
	var ds []time.Duration
	for i := 0; i < r.offered; i++ {
		if Outcome(r.outcome[i].Load()) == Committed && (keep == nil || keep(i)) {
			ds = append(ds, r.latency(i))
		}
	}
	return durationsMs(ds)
}

// lags returns the sorted driver lateness (submit time minus intended
// time) in ms.
func (r *Run) lags() []float64 {
	ds := make([]time.Duration, r.offered)
	for i := range ds {
		ds[i] = r.submitted[i] - r.intended[i]
	}
	return durationsMs(ds)
}

// elapsed is the time from the start of the run to the last settlement
// (or the last submission, if later).
func (r *Run) elapsed() time.Duration {
	var last time.Duration
	for i := 0; i < r.offered; i++ {
		if at := time.Duration(r.settledAt[i].Load()); at > last {
			last = at
		}
		if r.submitted[i] > last {
			last = r.submitted[i]
		}
	}
	return last
}

// check verifies the run's own accounting: offered = committed +
// aborted + failed + orphaned + shed + submit errors + unsettled, every
// admitted transaction settled at most once, and the settle callbacks
// agree with the outcome table.
func (r *Run) check() error {
	t := r.tally()
	sum := 0
	for _, n := range t.Outcomes {
		sum += n
	}
	if sum != t.Offered {
		return fmt.Errorf("accounting: outcomes sum to %d, offered %d", sum, t.Offered)
	}
	if d := r.doubleSettles.Load(); d != 0 {
		return fmt.Errorf("accounting: %d receipts settled more than once", d)
	}
	settled := t.Outcomes[Committed] + t.Outcomes[Aborted] + t.Outcomes[Failed] + t.Outcomes[Orphaned]
	if got := int(r.settles.Load()); got != settled {
		return fmt.Errorf("accounting: %d settle callbacks, %d settled outcomes", got, settled)
	}
	return nil
}

// WindowedQuantile is the median, over fixed windows of a run, of each
// window's quantile, with the base: how many windows counted and the
// smallest sample count and tail among them.
type WindowedQuantile struct {
	Value           float64
	Windows         int
	MinN, MinBeyond int
}

func (w WindowedQuantile) base() string {
	return fmt.Sprintf("median of %d one-second windows, each n>=%d with >=%d beyond", w.Windows, w.MinN, w.MinBeyond)
}

// windowedQuantile splits the committed transactions into windows of
// length w by intended send time and returns the median of the windows'
// q-quantiles, counting only windows with at least minSamples commits.
// A stall confined to a few windows moves it less than it moves the
// quantile of the whole run, which makes it steadier run to run.
func (r *Run) windowedQuantile(q float64, w time.Duration, minSamples int) WindowedQuantile {
	var byWin [][]time.Duration
	for i := 0; i < r.offered; i++ {
		if Outcome(r.outcome[i].Load()) != Committed {
			continue
		}
		k := int(r.intended[i] / w)
		for len(byWin) <= k {
			byWin = append(byWin, nil)
		}
		byWin[k] = append(byWin[k], r.latency(i))
	}
	var res WindowedQuantile
	var qs []float64
	for _, ds := range byWin {
		if len(ds) < minSamples {
			continue
		}
		wq := quantile(durationsMs(ds), q)
		qs = append(qs, wq.Value)
		if res.Windows == 0 || wq.N < res.MinN {
			res.MinN = wq.N
		}
		if res.Windows == 0 || wq.Beyond < res.MinBeyond {
			res.MinBeyond = wq.Beyond
		}
		res.Windows++
	}
	res.Value = median(qs)
	return res
}
