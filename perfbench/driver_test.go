package main

import (
	"errors"
	"sync"
	"testing"
	"time"

	"permchain/internal/types"
)

// fakeClock is a manual clock: SleepUntil jumps straight to the target
// (plus an optional oversleep, to model coarse timers), and tests move
// it forward to model time spent inside a call.
type fakeClock struct {
	mu        sync.Mutex
	t         time.Time
	oversleep time.Duration
	sleeps    int
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) SleepUntil(t time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sleeps++
	if t.After(c.t) {
		c.t = t
	}
	c.t = c.t.Add(c.oversleep)
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

func testTxs(n int) []*types.Transaction {
	txs := make([]*types.Transaction, n)
	for i := range txs {
		txs[i] = &types.Transaction{ID: string(rune('a' + i%26))}
	}
	return txs
}

// settleNow settles every submission inline as committed.
func settleNow(_ *types.Transaction, settle func(Outcome)) error {
	settle(Committed)
	return nil
}

func TestOpenLoopSchedule(t *testing.T) {
	clk := newFakeClock()
	var at []time.Time
	submit := func(tx *types.Transaction, settle func(Outcome)) error {
		at = append(at, clk.Now())
		settle(Committed)
		return nil
	}
	r := runOpenLoop(clk, 1000, testTxs(10), submit, nil, false)
	start := time.Unix(1000, 0)
	for i, got := range at {
		if want := start.Add(time.Duration(i) * time.Millisecond); !got.Equal(want) {
			t.Fatalf("tx %d submitted at %v, want %v", i, got.Sub(start), want.Sub(start))
		}
		if r.intended[i] != time.Duration(i)*time.Millisecond {
			t.Fatalf("tx %d intended %v", i, r.intended[i])
		}
	}
	if r.offered != 10 || r.wakeups != 10 || clk.sleeps != 9 {
		t.Fatalf("offered=%d wakeups=%d sleeps=%d, want 10/10/9", r.offered, r.wakeups, clk.sleeps)
	}
	if lag := r.lags(); lag[len(lag)-1] != 0 {
		t.Fatalf("max lag %vms on a punctual clock", lag[len(lag)-1])
	}
}

// A wake-up that comes late submits every transaction already due at
// once instead of sleeping between them, so the schedule never slips.
func TestOpenLoopSubmitsEverythingDueAtEachWakeup(t *testing.T) {
	clk := newFakeClock()
	clk.oversleep = 3500 * time.Microsecond
	r := runOpenLoop(clk, 1000, testTxs(100), settleNow, nil, false)
	if r.offered != 100 {
		t.Fatalf("offered %d, want 100", r.offered)
	}
	if r.wakeups >= 50 {
		t.Fatalf("%d wake-ups for 100 txs with 3.5ms oversleep; due txs were not batched", r.wakeups)
	}
	for i := 0; i < r.offered; i++ {
		if lag := r.submitted[i] - r.intended[i]; lag < 0 || lag > 4*time.Millisecond {
			t.Fatalf("tx %d lag %v, want within [0, 4ms]", i, lag)
		}
	}
	if got := r.elapsed(); got > 103*time.Millisecond {
		t.Fatalf("run took %v; schedule slipped", got)
	}
}

// A 100ms stall inside one submission is charged to every transaction
// scheduled behind it: their latency counts from when they were due,
// not from when the stalled driver got round to them.
func TestOpenLoopChargesStallToLaterTransactions(t *testing.T) {
	clk := newFakeClock()
	const stall = 100 * time.Millisecond
	n := 0
	submit := func(tx *types.Transaction, settle func(Outcome)) error {
		if n == 3 {
			clk.advance(stall)
		}
		n++
		settle(Committed)
		return nil
	}
	r := runOpenLoop(clk, 1000, testTxs(200), submit, nil, false)
	// tx 3 is due at 3ms and settles at 103ms; txs 4..103 were all due
	// during the stall and are submitted at 103ms.
	for i := 3; i <= 103; i++ {
		want := 103*time.Millisecond - time.Duration(i)*time.Millisecond
		if got := r.latency(i); got != want {
			t.Fatalf("tx %d latency %v, want %v", i, got, want)
		}
	}
	if got := r.latency(150); got != 0 {
		t.Fatalf("tx 150 latency %v after the backlog cleared, want 0", got)
	}
	lat := r.committedLatencies(nil)
	p99 := quantile(lat, 0.99)
	if p99.N != 200 || p99.Value < 95 {
		t.Fatalf("p99 %+v, want the stall visible over 200 samples", p99)
	}
	lags := r.lags()
	if max := lags[len(lags)-1]; max != 99 {
		t.Fatalf("max driver lag %vms, want 99ms", max)
	}
}

func TestOpenLoopCountsShedsAndErrors(t *testing.T) {
	clk := newFakeClock()
	errShed, errOther := errors.New("shed"), errors.New("other")
	n := 0
	submit := func(tx *types.Transaction, settle func(Outcome)) error {
		n++
		switch n % 4 {
		case 1:
			return errShed
		case 2:
			return errOther
		case 3:
			settle(Aborted)
		}
		return nil // case 0: admitted, never settles
	}
	r := runOpenLoop(clk, 1000, testTxs(8), submit, func(err error) bool { return err == errShed }, false)
	if r.wait(10 * time.Millisecond) {
		t.Fatal("wait reported every tx settled")
	}
	tl := r.tally()
	if tl.Outcomes[Shed] != 2 || tl.Outcomes[SubmitError] != 2 || tl.Outcomes[Aborted] != 2 || tl.Outcomes[Unsettled] != 2 {
		t.Fatalf("tally %+v", tl)
	}
	if tl.Errors() != 6 || tl.NotCommitted() != 8 {
		t.Fatalf("errors=%d notCommitted=%d", tl.Errors(), tl.NotCommitted())
	}
	if err := r.check(); err != nil {
		t.Fatal(err)
	}
}

func TestCheckCatchesDoubleSettle(t *testing.T) {
	submit := func(tx *types.Transaction, settle func(Outcome)) error {
		settle(Committed)
		settle(Committed)
		return nil
	}
	r := runOpenLoop(newFakeClock(), 1000, testTxs(3), submit, nil, false)
	if err := r.check(); err == nil {
		t.Fatal("double settlement passed the accounting check")
	}
}

func TestClosedLoopBoundsOutstanding(t *testing.T) {
	const clients = 4
	var mu sync.Mutex
	inflight, peak := 0, 0
	submit := func(tx *types.Transaction, settle func(Outcome)) error {
		mu.Lock()
		inflight++
		if inflight > peak {
			peak = inflight
		}
		mu.Unlock()
		time.AfterFunc(time.Millisecond, func() {
			mu.Lock()
			inflight--
			mu.Unlock()
			settle(Committed)
		})
		return nil
	}
	r := runClosedLoop(wallClock{}, clients, 2, 50*time.Millisecond, time.Second, testTxs(100000), submit, nil, true)
	if !r.wait(time.Second) {
		t.Fatal("closed loop left transactions unsettled")
	}
	if peak > clients {
		t.Fatalf("%d transactions outstanding, clients=%d", peak, clients)
	}
	tl := r.tally()
	if tl.Offered < clients || tl.Outcomes[Committed] != tl.Offered {
		t.Fatalf("tally %+v", tl)
	}
	for i := 0; i < r.offered; i++ {
		if r.latency(i) < time.Millisecond || r.submitted[i] < r.intended[i] {
			t.Fatalf("tx %d: intended %v submitted %v latency %v", i, r.intended[i], r.submitted[i], r.latency(i))
		}
	}
	if err := r.check(); err != nil {
		t.Fatal(err)
	}
}

func TestQuantileReportsBase(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	cases := []struct {
		q      float64
		want   float64
		beyond int
	}{{0.5, 50, 50}, {0.99, 99, 1}, {1, 100, 0}, {0.001, 1, 99}}
	for _, c := range cases {
		got := quantile(xs, c.q)
		if got.Value != c.want || got.N != 100 || got.Beyond != c.beyond {
			t.Fatalf("q=%v: %+v, want value %v beyond %d of 100", c.q, got, c.want, c.beyond)
		}
	}
	// Ties: samples equal to the quantile are not beyond it.
	tied := []float64{1, 2, 2, 2, 3}
	if got := quantile(tied, 0.5); got.Value != 2 || got.Beyond != 1 {
		t.Fatalf("tied median %+v", got)
	}
	if got := quantile(nil, 0.5); got.N != 0 || got.Value != 0 {
		t.Fatalf("empty quantile %+v", got)
	}
	if m := median([]float64{3, 1, 2, 4}); m != 2.5 {
		t.Fatalf("median %v, want 2.5", m)
	}
}

// A stall confined to one second of a five-second run moves the
// whole-run p99 but not the median of the per-second p99s.
func TestWindowedQuantileDiscountsOneStalledWindow(t *testing.T) {
	const n = 5000
	r := newRun(newFakeClock(), testTxs(n), nil, nil, false)
	r.offered = n
	for i := 0; i < n; i++ {
		r.intended[i] = time.Duration(i) * time.Millisecond
		lat := 10*time.Millisecond + time.Duration(i%100)*time.Microsecond
		if i >= 2000 && i < 3000 {
			lat = 500 * time.Millisecond
		}
		r.settledAt[i].Store(int64(r.intended[i] + lat))
		r.outcome[i].Store(uint32(Committed))
	}
	if whole := quantile(r.committedLatencies(nil), 0.99); whole.Value != 500 {
		t.Fatalf("whole-run p99 %v, want the 500ms stall", whole.Value)
	}
	w := r.windowedQuantile(0.99, time.Second, 100)
	if w.Value != 10.098 || w.Windows != 5 || w.MinN != 1000 || w.MinBeyond != 0 {
		t.Fatalf("windowed p99 %+v, want 10.098ms over 5 windows of 1000", w)
	}
	// Windows below the sample floor are skipped.
	if w := r.windowedQuantile(0.99, time.Second, 1001); w.Windows != 0 || w.Value != 0 {
		t.Fatalf("windowed p99 with an unmet floor %+v", w)
	}
}
