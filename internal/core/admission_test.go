package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"permchain/internal/mempool"
	"permchain/internal/network"
	"permchain/internal/obs"
)

func TestMempoolChainCommitsAndReplicates(t *testing.T) {
	// The admission-controlled path end to end: submissions route
	// through the pool, the drain loop forms batches, commits release
	// capacity, and the Figure 1 invariant holds as it does on the
	// direct path.
	o := obs.New()
	c := newChain(t, Config{Nodes: 4, Protocol: PBFT, Arch: OX, BlockSize: 4, Obs: o,
		Mempool: &mempool.Config{Capacity: 256}})
	const k = 40
	receipts := make([]*Receipt, 0, k)
	for i := 0; i < k; i++ {
		r, err := c.SubmitAsync(addTx(fmt.Sprintf("t%d", i), fmt.Sprintf("k%d", i%10), 1))
		if err != nil {
			t.Fatal(err)
		}
		receipts = append(receipts, r)
	}
	c.Flush()
	if !c.Await(AwaitSpec{Txs: k, Timeout: 20 * time.Second}) {
		t.Fatalf("processed %d/%d", c.Node(0).ProcessedTxs(), k)
	}
	for i, r := range receipts {
		if err := r.Wait(10 * time.Second); err != nil {
			t.Fatalf("receipt %d: %v", i, err)
		}
	}
	if err := c.VerifyReplication(); err != nil {
		t.Fatal(err)
	}
	st := c.Mempool().Stats()
	if st.Admitted != k || st.Occupancy != 0 {
		t.Fatalf("pool admitted %d (want %d), occupancy %d (want 0)", st.Admitted, k, st.Occupancy)
	}
	m := o.Reg.Snapshot()
	if m.Counters["mempool/admitted"] != k || m.Counters["mempool/batches"] == 0 {
		t.Fatalf("metrics: admitted=%d batches=%d", m.Counters["mempool/admitted"], m.Counters["mempool/batches"])
	}
}

func TestMempoolDedupSettlesBothReceiptsOnce(t *testing.T) {
	// Exactly-once handoff: an identical transaction submitted twice
	// while pending reaches consensus once — both receipts settle from
	// the same commit, and the state change applies a single time.
	// The stall gate keeps the first submission's block from settling
	// until the duplicate is in, so the two always overlap.
	c, err := New(Config{Nodes: 4, Protocol: PBFT, Arch: OX, BlockSize: 8,
		Timeout: 400 * time.Millisecond, Mempool: &mempool.Config{Capacity: 64}})
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	c.testExecGate = gate
	c.Start()
	t.Cleanup(c.Stop)
	tx := addTx("dup", "ctr", 1)
	r1, err := c.SubmitAsync(tx)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c.SubmitAsync(addTx("dup", "ctr", 1)) // same digest, fresh struct
	if err != nil {
		t.Fatal(err)
	}
	c.Flush()
	close(gate)
	for i, r := range []*Receipt{r1, r2} {
		if err := r.Wait(10 * time.Second); err != nil {
			t.Fatalf("receipt %d: %v", i, err)
		}
	}
	if r1.Height() != r2.Height() {
		t.Fatalf("receipts settled at different heights: %d vs %d", r1.Height(), r2.Height())
	}
	if !c.Await(AwaitSpec{Txs: 1, Timeout: 10 * time.Second}) {
		t.Fatal("tx not applied everywhere")
	}
	if got := c.Node(0).Store().GetInt("ctr"); got != 1 {
		t.Fatalf("ctr = %d, want 1 (duplicate was applied)", got)
	}
	if st := c.Mempool().Stats(); st.Deduped != 1 {
		t.Fatalf("deduped = %d, want 1", st.Deduped)
	}
}

func TestMempoolShedsTypedWithRetryAfterAndAccounting(t *testing.T) {
	// Fill a pool that can never drain (the stall gate holds every
	// executor, so nothing handed off settles, and the huge batch
	// deadline keeps the rest pooled): admissions past capacity
	// fast-fail with the typed *RejectError carrying a retry-after
	// hint, the shed lands in the transport's per-cause loss
	// accounting, no receipt is issued for a shed, and shutdown orphans
	// the pooled and in-flight remainder exactly once.
	const capacity = 8
	o := obs.New()
	net := network.New()
	cfg := Config{Nodes: 4, Protocol: PBFT, Arch: OX, BlockSize: 4, Obs: o, Net: net,
		FlushEvery: time.Hour, Timeout: 400 * time.Millisecond,
		Mempool: &mempool.Config{
			Capacity: capacity, BatchSize: capacity + 1, BatchDeadline: time.Hour}}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.testExecGate = make(chan struct{})
	c.Start()
	t.Cleanup(c.Stop)
	receipts := make([]*Receipt, 0, capacity)
	for i := 0; i < capacity; i++ {
		r, err := c.SubmitAsync(addTx(fmt.Sprintf("t%d", i), "k", 1))
		if err != nil {
			t.Fatalf("tx %d within capacity rejected: %v", i, err)
		}
		receipts = append(receipts, r)
	}
	for i := 0; i < 3; i++ {
		_, err := c.SubmitAsync(addTx(fmt.Sprintf("over%d", i), "k", 1))
		if !errors.Is(err, mempool.ErrMempoolFull) {
			t.Fatalf("over-capacity submit %d: err %v, want ErrMempoolFull", i, err)
		}
		var rej *mempool.RejectError
		if !errors.As(err, &rej) || rej.RetryAfter <= 0 {
			t.Fatalf("shed %d lacks retry-after hint: %#v", i, err)
		}
	}
	if got := net.StatsSnapshot().ByCause[network.DropAdmission]; got != 3 {
		t.Fatalf("admission drops in network accounting = %d, want 3", got)
	}
	if st := c.Mempool().Stats(); st.MaxOccupancy != capacity || st.RejectedFull != 3 {
		t.Fatalf("pool stats: max occupancy %d (want %d), rejected full %d (want 3)",
			st.MaxOccupancy, capacity, st.RejectedFull)
	}
	// A clean Stop waits for the gated executors to drain; a kill does
	// not.
	c.Crash()
	for i, r := range receipts {
		if !errors.Is(r.Wait(0), ErrStopped) {
			t.Fatalf("pooled receipt %d: err %v, want ErrStopped", i, r.Err())
		}
	}
	m := o.Reg.Snapshot()
	issued := m.Counters["core/receipts_issued"]
	settled := m.Counters["core/receipts_resolved"] + m.Counters["core/receipts_orphaned"]
	if issued != capacity || settled != issued {
		t.Fatalf("issued %d settled %d, want %d each (sheds must not issue receipts)",
			issued, settled, capacity)
	}
}

func TestSubmitDuringStopTimeoutInteraction(t *testing.T) {
	// The Submit-during-Stop × timeout interaction on the admission
	// path: submitters race Stop with bounded Waits. Every receipt a
	// successful submission returned must settle within its deadline —
	// committed, or typed ErrStopped — and never with ErrAwaitTimeout,
	// because Stop's orphan sweep settles everything the pool held.
	c, err := New(Config{Nodes: 4, Protocol: PBFT, Arch: OX, BlockSize: 2,
		Timeout: 400 * time.Millisecond,
		Mempool: &mempool.Config{Capacity: 1024}})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	t.Cleanup(c.Stop)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				r, err := c.SubmitAsync(addTx(fmt.Sprintf("g%d-%d", g, i), "k", 1))
				if err != nil {
					if !errors.Is(err, ErrStopped) && !mempool.IsReject(err) {
						errs <- fmt.Errorf("submit: %w", err)
					}
					if errors.Is(err, ErrStopped) {
						return
					}
					continue
				}
				// The bounded wait is the satellite's contract: a
				// settled-or-typed-error answer within the deadline.
				if werr := r.Wait(20 * time.Second); werr != nil &&
					!errors.Is(werr, ErrStopped) {
					errs <- fmt.Errorf("wait: %w", werr)
					return
				}
			}
		}()
	}
	time.Sleep(100 * time.Millisecond)
	c.Stop()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// And the timeout side of the interaction: a wait that cannot be
	// satisfied returns typed ErrAwaitTimeout promptly, on both the
	// duration and the context form.
	if err := c.AwaitErr(AwaitSpec{Txs: 1 << 30, Timeout: 20 * time.Millisecond}); !errors.Is(err, ErrAwaitTimeout) {
		t.Fatalf("AwaitErr on unreachable floor: %v, want ErrAwaitTimeout", err)
	}
}

func TestReceiptWaitContextTyped(t *testing.T) {
	// WaitContext on an unsettled receipt: context expiry surfaces as
	// the typed ErrAwaitTimeout and also matches the context cause. The
	// stall gate holds every executor, so the handed-off transaction is
	// decided but never applied.
	c, err := New(Config{Nodes: 4, Protocol: PBFT, Arch: OX,
		Timeout: 400 * time.Millisecond, Mempool: &mempool.Config{Capacity: 16}})
	if err != nil {
		t.Fatal(err)
	}
	c.testExecGate = make(chan struct{})
	c.Start()
	t.Cleanup(c.Stop)
	r, err := c.SubmitAsync(addTx("stuck", "k", 1))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	werr := r.WaitContext(ctx)
	if !errors.Is(werr, ErrAwaitTimeout) {
		t.Fatalf("WaitContext: %v, want ErrAwaitTimeout", werr)
	}
	if !errors.Is(werr, context.DeadlineExceeded) {
		t.Fatalf("WaitContext: %v should also match context.DeadlineExceeded", werr)
	}
	// A clean Stop waits for the gated executors to drain, so end the
	// chain the way a kill does: the receipt settles as stopped, and
	// WaitContext now reports the settle error, not the context.
	c.Crash()
	if err := r.WaitContext(context.Background()); !errors.Is(err, ErrStopped) {
		t.Fatalf("post-stop WaitContext: %v, want ErrStopped", err)
	}
}
