package mempool

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"permchain/internal/obs"
	"permchain/internal/types"
)

func tx(client int, id string) *types.Transaction {
	return &types.Transaction{
		ID:     id,
		Client: types.NodeID(client),
		Ops:    []types.Op{{Code: types.OpAdd, Key: id, Delta: 1}},
	}
}

func TestDedupAcrossResubmission(t *testing.T) {
	// A digest is outstanding from admission until Release — resubmitting
	// anywhere in that window consumes no slot and is never handed off a
	// second time; after Release the same digest admits fresh.
	p := New(Config{Capacity: 8})
	first := tx(0, "a")
	if dup, err := p.Admit(first, nil); dup || err != nil {
		t.Fatalf("first admit: dup=%v err=%v", dup, err)
	}
	// Pooled: duplicate (fresh struct, same digest) is absorbed.
	if dup, err := p.Admit(tx(0, "a"), nil); !dup || err != nil {
		t.Fatalf("pooled resubmit: dup=%v err=%v", dup, err)
	}
	batch := p.NextBatch(8)
	if len(batch) != 1 {
		t.Fatalf("handoff carried %d txs, want 1 (dup must not be handed off)", len(batch))
	}
	// Inflight: still outstanding, still deduplicated.
	if dup, err := p.Admit(tx(0, "a"), nil); !dup || err != nil {
		t.Fatalf("inflight resubmit: dup=%v err=%v", dup, err)
	}
	if more := p.NextBatch(8); len(more) != 0 {
		t.Fatalf("inflight dup re-entered the queue: %d txs", len(more))
	}
	p.Release(batch)
	// Released: the window is over; the digest admits as a new tx.
	if dup, err := p.Admit(tx(0, "a"), nil); dup || err != nil {
		t.Fatalf("post-release admit: dup=%v err=%v", dup, err)
	}
	st := p.Stats()
	if st.Admitted != 2 || st.Deduped != 2 || st.Occupancy != 1 {
		t.Fatalf("stats: admitted=%d deduped=%d occupancy=%d, want 2/2/1",
			st.Admitted, st.Deduped, st.Occupancy)
	}
}

func TestFairShareHotClientCannotStarveCold(t *testing.T) {
	// The 90/10 split: a hot client hammering the pool and a cold client
	// trickling. With both active the dynamic fair share is Capacity/2 —
	// the hot client sheds at its share with ErrClientQuota, and the cold
	// client's submissions all land.
	const capacity = 100
	p := New(Config{Capacity: capacity, ActivityWindow: time.Minute})
	// Both clients touch the pool so both count in the divisor.
	if _, err := p.Admit(tx(1, "cold-warmup"), nil); err != nil {
		t.Fatal(err)
	}
	hotAdmitted, hotQuota := 0, 0
	for i := 0; i < 9*capacity/10; i++ { // 90 hot submissions
		_, err := p.Admit(tx(0, fmt.Sprintf("hot-%d", i)), nil)
		switch {
		case err == nil:
			hotAdmitted++
		case errors.Is(err, ErrClientQuota):
			hotQuota++
		default:
			t.Fatalf("hot submit %d: %v", i, err)
		}
	}
	if hotAdmitted != capacity/2 {
		t.Fatalf("hot client admitted %d, want its fair share %d", hotAdmitted, capacity/2)
	}
	if hotQuota == 0 {
		t.Fatal("hot client never hit ErrClientQuota")
	}
	// The cold client's 10 submissions all fit inside its untouched share.
	for i := 0; i < capacity/10; i++ {
		if _, err := p.Admit(tx(1, fmt.Sprintf("cold-%d", i)), nil); err != nil {
			t.Fatalf("cold client shed at submission %d: %v", i, err)
		}
	}
	st := p.Stats()
	if st.RejectedQuota != int64(hotQuota) || st.RejectedFull != 0 {
		t.Fatalf("stats: rejectedQuota=%d rejectedFull=%d", st.RejectedQuota, st.RejectedFull)
	}
	if st.ActiveClients != 2 {
		t.Fatalf("active clients = %d, want 2", st.ActiveClients)
	}
}

func TestFixedClientQuotaOverridesFairShare(t *testing.T) {
	p := New(Config{Capacity: 100, ClientQuota: 3})
	for i := 0; i < 3; i++ {
		if _, err := p.Admit(tx(0, fmt.Sprintf("t%d", i)), nil); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if _, err := p.Admit(tx(0, "t3"), nil); !errors.Is(err, ErrClientQuota) {
		t.Fatalf("4th submit: %v, want ErrClientQuota", err)
	}
}

func TestCapacityNeverExceededConcurrently(t *testing.T) {
	// The capacity invariant under the race detector: many goroutines
	// submitting (distinct clients so quota is not the binding limit)
	// while a consumer drains and releases. MaxOccupancy is the
	// high-water witness — it must never pass Capacity, and the sheds
	// must be typed.
	const capacity = 64
	p := New(Config{Capacity: capacity, BatchSize: 16, ClientQuota: capacity})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // consumer: drain and commit
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if batch := p.NextBatch(16); len(batch) > 0 {
				p.Release(batch)
			}
		}
	}()
	var submitErrs sync.Map
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				_, err := p.Admit(tx(g, fmt.Sprintf("g%d-%d", g, i)), nil)
				if err != nil && !IsReject(err) {
					submitErrs.Store(fmt.Sprintf("g%d-%d", g, i), err)
					return
				}
			}
		}()
	}
	// Submitters finish first; then stop the consumer.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	submittersDone := make(chan struct{})
	go func() {
		// The consumer only exits via stop; wait for submitters by
		// polling admitted+rejected totals.
		for {
			st := p.Stats()
			if st.Admitted+st.RejectedFull+st.RejectedQuota+st.Deduped >= 8*500 {
				close(submittersDone)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	select {
	case <-submittersDone:
	case <-time.After(30 * time.Second):
		t.Fatal("submitters did not finish")
	}
	close(stop)
	<-done
	submitErrs.Range(func(k, v any) bool {
		t.Errorf("submit %v: unexpected error %v", k, v)
		return true
	})
	st := p.Stats()
	if st.MaxOccupancy > capacity {
		t.Fatalf("capacity invariant violated: max occupancy %d > %d", st.MaxOccupancy, capacity)
	}
	if st.Admitted == 0 {
		t.Fatal("nothing admitted")
	}
	// Conservation: every admitted transaction is still drainable —
	// releasing everything left brings occupancy exactly to zero, so
	// nothing leaked a slot and nothing was double-released.
	for {
		batch := p.NextBatch(capacity)
		if len(batch) == 0 {
			break
		}
		p.Release(batch)
	}
	if st = p.Stats(); st.Occupancy != 0 || st.Pooled != 0 || st.Inflight != 0 {
		t.Fatalf("after full drain: occupancy=%d pooled=%d inflight=%d, want 0/0/0",
			st.Occupancy, st.Pooled, st.Inflight)
	}
}

func TestBatchDeadlineFiresPartialBatch(t *testing.T) {
	// Batch-by-time: while a batch is in flight the idle rule cannot
	// fire, so a partial batch stays pooled — the deadline must still
	// hand it off.
	p := New(Config{Capacity: 16, BatchSize: 8, BatchDeadline: 5 * time.Millisecond})
	if _, err := p.Admit(tx(0, "head"), nil); err != nil {
		t.Fatal(err)
	}
	if batch, _ := p.Cut(8); len(batch) != 1 { // a fresh pool is idle
		t.Fatalf("idle handoff carried %d txs, want 1", len(batch))
	}
	for i := 0; i < 3; i++ {
		if _, err := p.Admit(tx(0, fmt.Sprintf("t%d", i)), nil); err != nil {
			t.Fatal(err)
		}
	}
	if batch, wait := p.Cut(8); batch != nil || wait <= 0 {
		t.Fatalf("handed off %d txs below BatchSize with a batch in flight (wait %v)", len(batch), wait)
	}
	time.Sleep(5 * time.Millisecond)
	if batch, _ := p.Cut(8); len(batch) != 3 {
		t.Fatalf("deadline handoff carried %d txs, want the partial 3", len(batch))
	}
	// Batch-by-size: the 8th pooled tx trips Ready and hands off at
	// once, in flight or not.
	for i := 0; i < 8; i++ {
		if _, err := p.Admit(tx(0, fmt.Sprintf("s%d", i)), nil); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-p.Ready():
	case <-time.After(time.Second):
		t.Fatal("Ready did not signal at BatchSize")
	}
	if batch, _ := p.Cut(8); len(batch) != 8 {
		t.Fatalf("full batch carried %d txs, want 8", len(batch))
	}
}

func TestHandoffRule(t *testing.T) {
	// The self-clocked rule, case by case: quiet while a batch is in
	// flight, a partial batch after an idle period of at least one
	// round, a full batch at once, and the deadline as the bound when a
	// predecessor never settles. Each handoff is counted by reason.
	const round = 30 * time.Millisecond
	o := obs.New()
	p := New(Config{Capacity: 64, BatchSize: 4, BatchDeadline: 2 * time.Second, Obs: o})
	admit := func(ids ...string) {
		t.Helper()
		for _, id := range ids {
			if _, err := p.Admit(tx(0, id), nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	admit("a")
	handedOff := time.Now()
	first, _ := p.Cut(0)
	if len(first) != 1 {
		t.Fatalf("fresh idle pool handed off %d txs, want 1", len(first))
	}

	// Quiet while in flight: the partial batch waits for the drain (or
	// the deadline), however long it has been pooled.
	admit("b", "c")
	time.Sleep(round)
	if batch, wait := p.Cut(0); batch != nil || wait <= 0 || wait > 2*time.Second {
		t.Fatalf("in-flight pool handed off %d txs (wait %v), want none", len(batch), wait)
	}

	// The release that drains the in-flight set ends a round of at
	// least `round`; the partial batch then waits that long again.
	drainedAt := time.Now()
	p.Release(first)
	lastRound := time.Since(handedOff) // an upper bound on the pool's own measure
	select {
	case <-p.Ready():
	default:
		t.Fatal("drain with pooled work did not signal Ready")
	}
	batch, wait := p.Cut(0)
	if batch != nil || wait <= 0 || wait > lastRound {
		t.Fatalf("right after the drain: %d txs, wait %v; want none and a wait within the %v round", len(batch), wait, lastRound)
	}
	time.Sleep(wait)
	second, _ := p.Cut(0)
	if len(second) != 2 {
		t.Fatalf("idle handoff carried %d txs, want the partial 2", len(second))
	}
	if idle := time.Since(drainedAt); idle < round {
		t.Fatalf("partial batch left after %v idle, shorter than the round (at least %v)", idle, round)
	}

	// A full batch leaves at once, with the partial one still in flight.
	admit("d", "e", "f", "g")
	if full, _ := p.Cut(0); len(full) != 4 {
		t.Fatalf("full batch carried %d txs, want 4", len(full))
	}

	// The predecessors never settle: only the deadline moves "h".
	q := New(Config{Capacity: 8, BatchSize: 4, BatchDeadline: 20 * time.Millisecond, Obs: o})
	if _, err := q.Admit(tx(0, "x"), nil); err != nil {
		t.Fatal(err)
	}
	if b, _ := q.Cut(0); len(b) != 1 {
		t.Fatalf("fresh pool handed off %d txs, want 1", len(b))
	}
	if _, err := q.Admit(tx(0, "h"), nil); err != nil {
		t.Fatal(err)
	}
	if b, wait := q.Cut(0); b != nil || wait <= 0 || wait > 20*time.Millisecond {
		t.Fatalf("before the deadline: %d txs, wait %v", len(b), wait)
	}
	time.Sleep(20 * time.Millisecond)
	if b, _ := q.Cut(0); len(b) != 1 || b[0].ID != "h" {
		t.Fatalf("deadline handoff = %v, want [h]", b)
	}
	if _, err := q.Admit(tx(0, "z"), nil); err != nil {
		t.Fatal(err)
	}
	if b := q.NextBatch(0); len(b) != 1 {
		t.Fatalf("flush carried %d txs, want 1", len(b))
	}

	m := o.Reg.Snapshot().Counters
	for reason, want := range map[string]int64{"full": 1, "idle": 3, "deadline": 1, "flush": 1} {
		if got := m["mempool/handoff_"+reason]; got != want {
			t.Errorf("mempool/handoff_%s = %d, want %d", reason, got, want)
		}
	}
	if m["mempool/batches"] != 6 {
		t.Errorf("mempool/batches = %d, want 6", m["mempool/batches"])
	}
}

func TestRejectCarriesRetryAfterFromDrainRate(t *testing.T) {
	p := New(Config{Capacity: 2, BatchSize: 2, BatchDeadline: 40 * time.Millisecond})
	for i := 0; i < 2; i++ {
		if _, err := p.Admit(tx(0, fmt.Sprintf("t%d", i)), nil); err != nil {
			t.Fatal(err)
		}
	}
	_, err := p.Admit(tx(0, "over"), nil)
	var rej *RejectError
	if !errors.As(err, &rej) {
		t.Fatalf("over-capacity submit: %v, want *RejectError", err)
	}
	// Before any commit the hint falls back to one batch deadline.
	if rej.RetryAfter != 40*time.Millisecond {
		t.Fatalf("pre-commit retry-after = %v, want the batch deadline", rej.RetryAfter)
	}
	// Two releases spaced apart establish a drain rate; the hint becomes
	// rate-derived (one batch at the observed rate) and stays clamped.
	batch := p.NextBatch(2)
	p.Release(batch[:1])
	time.Sleep(10 * time.Millisecond)
	p.Release(batch[1:])
	if p.DrainRate() <= 0 {
		t.Fatal("drain rate not established after releases")
	}
	for i := 0; i < 2; i++ {
		if _, err := p.Admit(tx(0, fmt.Sprintf("r%d", i)), nil); err != nil {
			t.Fatal(err)
		}
	}
	_, err = p.Admit(tx(0, "over2"), nil)
	if !errors.As(err, &rej) {
		t.Fatalf("second shed: %v", err)
	}
	if rej.RetryAfter < time.Millisecond || rej.RetryAfter > 5*time.Second {
		t.Fatalf("rate-derived retry-after %v outside clamp", rej.RetryAfter)
	}
}

func TestCloseShedsWithErrClosed(t *testing.T) {
	p := New(Config{Capacity: 4})
	if _, err := p.Admit(tx(0, "a"), nil); err != nil {
		t.Fatal(err)
	}
	p.Close()
	p.Close() // idempotent
	if _, err := p.Admit(tx(0, "b"), nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close admit: %v, want ErrClosed", err)
	}
	if IsReject(ErrClosed) {
		t.Fatal("ErrClosed must not count as a shed")
	}
	if st := p.Stats(); st.Occupancy != 0 {
		t.Fatalf("occupancy %d after close, want 0", st.Occupancy)
	}
}

// BenchmarkAdmitBatchRelease measures the pool's full slot lifecycle —
// admit, batch handoff, release — which is the per-transaction overhead
// the admission layer adds in front of the commit pipeline.
func BenchmarkAdmitBatchRelease(b *testing.B) {
	p := New(Config{Capacity: 4096, BatchSize: 64, BatchDeadline: time.Hour})
	defer p.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Admit(tx(i%16, fmt.Sprintf("b-%d", i)), nil); err != nil {
			b.Fatal(err)
		}
		if i%64 == 63 {
			p.Release(p.NextBatch(64))
		}
	}
	b.StopTimer()
	for {
		batch := p.NextBatch(64)
		if len(batch) == 0 {
			break
		}
		p.Release(batch)
	}
}

// BenchmarkAdmitParallel measures admission under submitter concurrency:
// contended pool-lock acquisition with dedup and quota checks on every
// call, while a background consumer drains so capacity sheds stay rare.
func BenchmarkAdmitParallel(b *testing.B) {
	p := New(Config{Capacity: 4096, BatchSize: 64, BatchDeadline: time.Hour})
	defer p.Close()
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				if batch := p.NextBatch(256); len(batch) > 0 {
					p.Release(batch)
				}
			}
		}
	}()
	var seq atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := seq.Add(1)
			_, err := p.Admit(tx(int(i%16), fmt.Sprintf("p-%d", i)), nil)
			if err != nil && !IsReject(err) {
				b.Fatal(err)
			}
		}
	})
	b.StopTimer()
	close(stop)
	<-done
}
