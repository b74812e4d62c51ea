package chaos

// Overload chaos: instead of crashing replicas or cutting links, these
// schedules attack the front door — offered load far beyond capacity,
// a client that refuses to share, a process kill in the middle of a
// burst — and assert the graceful-degradation contract the admission
// layer (internal/mempool) makes:
//
//   - sheds are typed and hinted, never silent queueing: overload
//     surfaces as *mempool.RejectError with a retry-after, and lands in
//     the transport's per-cause drop accounting (DropAdmission);
//   - queues stay bounded: the pool's occupancy high-water mark never
//     passes Capacity and the apply queue's observed depth never passes
//     its configured bound, no matter the offered load;
//   - zero receipt loss: every admitted transaction's receipt settles —
//     committed or typed ErrStopped — including across a crash and
//     disk recovery mid-burst; sheds never issue a receipt at all.

import (
	"errors"
	"fmt"
	"time"

	"permchain/internal/core"
	"permchain/internal/mempool"
	"permchain/internal/network"
	"permchain/internal/obs"
	"permchain/internal/store"
	"permchain/internal/types"
	"permchain/internal/workload"
)

// OverloadArm names one overload schedule.
type OverloadArm string

const (
	// ArmBurst slams 3× capacity into the pool in a tight loop: the
	// admission layer must shed the overhang with typed errors while
	// every admitted transaction commits.
	ArmBurst OverloadArm = "burst"
	// ArmSustained offers an open-loop, CO-safe stream at a rate above
	// capacity for the whole run: sheds are sustained, committed-tx p99
	// stays bounded (shedding, not queueing, absorbs the excess).
	ArmSustained OverloadArm = "sustained"
	// ArmHotClient splits offered load 90/10 between two clients: the
	// hot one must be capped at its fair share while the cold one is
	// never shed.
	ArmHotClient OverloadArm = "hot-client"
	// ArmCrashRecovery kills the cluster mid-burst on a durable store,
	// then recovers from disk: receipts settle exactly once across the
	// crash, and the recovered cluster replicates and keeps committing.
	ArmCrashRecovery OverloadArm = "crash-recovery"
)

// OverloadConfig parameterizes one overload run.
type OverloadConfig struct {
	Arm OverloadArm
	// Nodes, BlockSize, Timeout shape the chain (defaults 4, 8, 400ms).
	Nodes     int
	BlockSize int
	Timeout   time.Duration
	// Capacity is the mempool's hard cap (default 64); the burst arms
	// offer 3× this, so smaller capacities make harsher runs.
	Capacity int
	// Rate is the sustained arm's offered load in tx/s. E14 sets it to
	// 2× the saturation point its ramp measured; the default 50000 is
	// simply far beyond what the in-process cluster commits, so the
	// driver is permanently ahead of schedule and sheds are guaranteed.
	Rate float64
	// Txs bounds the sustained arm's stream length (default 16 × Capacity).
	Txs int
	// P99Bound is the sustained arm's committed-latency ceiling, CO-safe
	// (default 30s — the run fails if overload queues rather than sheds).
	P99Bound time.Duration
	// Dir is the durable store directory; required by ArmCrashRecovery.
	Dir string
	// Obs receives the run's metrics; a fresh registry is created when
	// nil (the report snapshots it either way).
	Obs *obs.Obs
}

func (c OverloadConfig) defaulted() OverloadConfig {
	if c.Nodes == 0 {
		c.Nodes = 4
	}
	if c.BlockSize == 0 {
		c.BlockSize = 8
	}
	if c.Timeout == 0 {
		c.Timeout = 400 * time.Millisecond
	}
	if c.Capacity == 0 {
		c.Capacity = 64
	}
	if c.Rate == 0 {
		c.Rate = 50000
	}
	if c.Txs == 0 {
		c.Txs = 16 * c.Capacity
	}
	if c.P99Bound == 0 {
		c.P99Bound = 30 * time.Second
	}
	if c.Obs == nil {
		c.Obs = obs.New()
	}
	return c
}

// OverloadReport is one overload run's outcome.
type OverloadReport struct {
	Arm      OverloadArm
	Capacity int
	// Offered = Admitted + Shed (+ HardErrors, which fail the run).
	Offered  int
	Admitted int
	Shed     int
	// Committed and Orphaned partition the admitted transactions'
	// receipts; Committed+Orphaned == Admitted is the zero-loss witness.
	Committed int
	Orphaned  int
	// MaxOccupancy is the pool's high-water mark (must stay <= Capacity);
	// ApplyQueueMax is the deepest observed apply-queue length.
	MaxOccupancy  int
	ApplyQueueMax int64
	// P99 is the sustained arm's CO-safe settle latency (zero elsewhere).
	P99 time.Duration
	// AdmissionDrops is the transport's DropAdmission counter — sheds
	// must be visible in the same per-cause accounting chaos drops use.
	AdmissionDrops int64
	// Failures lists every violated assertion; empty means the arm held.
	Failures []string
	// Metrics is the run's full observability snapshot.
	Metrics obs.Snapshot
}

// Ok reports whether every overload assertion held.
func (r *OverloadReport) Ok() bool { return len(r.Failures) == 0 }

// String renders a compact summary.
func (r *OverloadReport) String() string {
	status := "OK"
	if !r.Ok() {
		status = "FAIL"
	}
	s := fmt.Sprintf("overload %s cap=%d: %s\n  offered=%d admitted=%d shed=%d committed=%d orphaned=%d",
		r.Arm, r.Capacity, status, r.Offered, r.Admitted, r.Shed, r.Committed, r.Orphaned)
	s += fmt.Sprintf("\n  max occupancy=%d/%d apply-queue max=%d admission drops=%d",
		r.MaxOccupancy, r.Capacity, r.ApplyQueueMax, r.AdmissionDrops)
	if r.P99 > 0 {
		s += fmt.Sprintf("\n  co-safe p99=%v", r.P99)
	}
	for _, f := range r.Failures {
		s += "\n  FAILURE: " + f
	}
	return s
}

func (r *OverloadReport) failf(format string, args ...any) {
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// RunOverload executes one overload arm and checks its assertions.
func RunOverload(cfg OverloadConfig) *OverloadReport {
	cfg = cfg.defaulted()
	rep := &OverloadReport{Arm: cfg.Arm, Capacity: cfg.Capacity}

	ccfg := core.Config{
		Nodes: cfg.Nodes, Protocol: core.PBFT, Arch: core.OX,
		BlockSize: cfg.BlockSize, Timeout: cfg.Timeout, Obs: cfg.Obs,
		Mempool: &mempool.Config{Capacity: cfg.Capacity},
	}
	if cfg.Arm == ArmCrashRecovery {
		if cfg.Dir == "" {
			rep.failf("crash-recovery arm requires Dir")
			return rep
		}
		ccfg.Store = &store.Config{Dir: cfg.Dir, Fsync: store.FsyncAlways}
	}
	c, err := core.New(ccfg)
	if err != nil {
		rep.failf("build chain: %v", err)
		return rep
	}
	c.Start()

	switch cfg.Arm {
	case ArmBurst:
		runBurstArm(cfg, c, rep)
	case ArmSustained:
		runSustainedArm(cfg, c, rep)
	case ArmHotClient:
		runHotClientArm(cfg, c, rep)
	case ArmCrashRecovery:
		runCrashArm(cfg, ccfg, c, rep)
	default:
		rep.failf("unknown arm %q", cfg.Arm)
		c.Stop()
		return rep
	}
	rep.finish(cfg, c)
	return rep
}

// finish collects the cross-arm witnesses after the arm's chain(s) have
// stopped: bounded occupancy, bounded apply-queue depth, admission
// drops visible in transport accounting, and the receipt ledger
// balancing (issued == resolved + orphaned — nothing hangs, nothing
// settles twice).
func (r *OverloadReport) finish(cfg OverloadConfig, c *core.Chain) {
	st := c.Mempool().Stats()
	r.MaxOccupancy = st.MaxOccupancy
	if st.MaxOccupancy > cfg.Capacity {
		r.failf("occupancy high-water %d exceeded capacity %d", st.MaxOccupancy, cfg.Capacity)
	}
	r.AdmissionDrops = c.Network().StatsSnapshot().ByCause[network.DropAdmission]
	if r.Shed > 0 && r.AdmissionDrops == 0 {
		r.failf("%d sheds invisible in transport drop accounting", r.Shed)
	}
	r.Metrics = cfg.Obs.Reg.Snapshot()
	if hs, ok := r.Metrics.Histograms["core/apply_queue_len"]; ok {
		r.ApplyQueueMax = hs.Max
	}
	issued := r.Metrics.Counters["core/receipts_issued"]
	settled := r.Metrics.Counters["core/receipts_resolved"] + r.Metrics.Counters["core/receipts_orphaned"]
	if issued != settled {
		r.failf("receipt ledger unbalanced: issued %d, settled %d", issued, settled)
	}
	if r.Committed+r.Orphaned != r.Admitted {
		r.failf("receipt loss: admitted %d but committed %d + orphaned %d",
			r.Admitted, r.Committed, r.Orphaned)
	}
}

// submitBurst fires txs in a tight loop, far faster than consensus can
// drain, recording admissions and typed sheds. Hard errors fail the run.
func submitBurst(c *core.Chain, txs []*types.Transaction, rep *OverloadReport) []*core.Receipt {
	receipts := make([]*core.Receipt, 0, len(txs))
	for _, tx := range txs {
		rep.Offered++
		r, err := c.SubmitAsync(tx)
		if err != nil {
			if mempool.IsReject(err) {
				rep.Shed++
				var rej *mempool.RejectError
				if !errors.As(err, &rej) || rej.RetryAfter <= 0 {
					rep.failf("shed without retry-after hint: %v", err)
				}
				continue
			}
			rep.failf("hard submit error: %v", err)
			continue
		}
		rep.Admitted++
		receipts = append(receipts, r)
	}
	return receipts
}

// settleReceipts waits every receipt out and tallies committed vs
// orphaned; anything else — including a hang past timeout — is a failure.
func settleReceipts(receipts []*core.Receipt, timeout time.Duration, rep *OverloadReport) {
	for i, r := range receipts {
		err := r.Wait(timeout)
		switch {
		case err == nil:
			rep.Committed++
		case errors.Is(err, core.ErrStopped):
			rep.Orphaned++
		default:
			rep.failf("receipt %d: %v", i, err)
		}
	}
}

func burstTxs(prefix string, n int, client types.NodeID) []*types.Transaction {
	g := workload.New(1)
	txs := g.KV(workload.KVConfig{Txs: n, Keys: 64})
	for i, tx := range txs {
		tx.ID = fmt.Sprintf("%s-%d", prefix, i)
		tx.Client = client
	}
	return txs
}

func runBurstArm(cfg OverloadConfig, c *core.Chain, rep *OverloadReport) {
	receipts := submitBurst(c, burstTxs("burst", 3*cfg.Capacity, 0), rep)
	if rep.Shed == 0 {
		rep.failf("3x-capacity burst shed nothing (capacity %d)", cfg.Capacity)
	}
	c.Flush()
	settleReceipts(receipts, 30*time.Second, rep)
	c.Stop()
	if rep.Orphaned != 0 {
		rep.failf("clean burst orphaned %d receipts", rep.Orphaned)
	}
}

func runSustainedArm(cfg OverloadConfig, c *core.Chain, rep *OverloadReport) {
	res := workload.RunOpenLoop(workload.OpenLoopConfig{
		Rate: cfg.Rate,
		Txs:  burstTxs("sustained", cfg.Txs, 0),
		Submit: func(tx *types.Transaction) (<-chan struct{}, error) {
			r, err := c.SubmitAsync(tx)
			if err != nil {
				return nil, err
			}
			return r.Done(), nil
		},
		IsShed:        mempool.IsReject,
		SettleTimeout: 60 * time.Second,
	})
	c.Flush()
	c.Stop()
	rep.Offered, rep.Admitted, rep.Shed = res.Offered, res.Admitted, res.Shed
	rep.Committed, rep.Orphaned = res.Settled, 0
	rep.P99 = res.P99
	if res.HardErrors > 0 {
		rep.failf("%d hard submit errors", res.HardErrors)
	}
	if res.Unsettled > 0 {
		// An admitted tx that never settled is a lost receipt, the exact
		// failure mode the bounded front door exists to rule out.
		rep.failf("%d admitted transactions never settled", res.Unsettled)
	}
	if res.Shed == 0 {
		rep.failf("sustained overload at %.0f tx/s shed nothing", cfg.Rate)
	}
	if res.P99 > cfg.P99Bound {
		rep.failf("co-safe p99 %v exceeded bound %v: overload queued instead of shedding",
			res.P99, cfg.P99Bound)
	}
}

func runHotClientArm(cfg OverloadConfig, c *core.Chain, rep *OverloadReport) {
	const hot, cold types.NodeID = 1, 2
	// The cold client touches the pool first so the fair-share divisor
	// counts it from the hot client's very first admission.
	coldTxs := burstTxs("cold", cfg.Capacity/10+1, cold)
	hotTxs := burstTxs("hot", 3*cfg.Capacity, hot)
	receipts := submitBurst(c, coldTxs[:1], rep)
	receipts = append(receipts, submitBurst(c, hotTxs, rep)...)
	hotShed := rep.Shed
	receipts = append(receipts, submitBurst(c, coldTxs[1:], rep)...)
	if coldShed := rep.Shed - hotShed; coldShed != 0 {
		rep.failf("cold client shed %d times behind a hot client", coldShed)
	}
	if hotShed == 0 {
		rep.failf("hot client at 3x capacity was never shed")
	}
	// The sheds must be the fairness kind: the hot client hits its
	// fair-share quota while the pool still has room for the cold one.
	// (The exact Capacity/2 cap is asserted in the mempool unit tests,
	// where no concurrent drain can release slots mid-burst.)
	if st := c.Mempool().Stats(); st.RejectedQuota == 0 {
		rep.failf("hot client was never quota-shed (rejections: full=%d quota=%d)",
			st.RejectedFull, st.RejectedQuota)
	}
	c.Flush()
	settleReceipts(receipts, 30*time.Second, rep)
	c.Stop()
}

func runCrashArm(cfg OverloadConfig, ccfg core.Config, c *core.Chain, rep *OverloadReport) {
	receipts := submitBurst(c, burstTxs("crash", 3*cfg.Capacity, 0), rep)
	if rep.Shed == 0 {
		rep.failf("pre-crash burst shed nothing (capacity %d)", cfg.Capacity)
	}
	c.Flush()
	// Let part of the admitted burst commit, then kill mid-stream. The
	// wait is on a receipt, not on node 0's applied count: a receipt
	// settles only once its block is durable, a step behind apply, so a
	// crash right after an applied-count wait can orphan every receipt.
	// The pool is FIFO, so the q-th receipt settling means the first q
	// did.
	if q := min(cfg.Capacity/4, len(receipts)); q > 0 {
		receipts[q-1].Wait(20 * time.Second)
	}
	c.Crash()
	var durable uint64
	for _, n := range c.Nodes() {
		if h := n.DurableHeight(); h > durable {
			durable = h
		}
	}
	// Zero loss across the crash: every admitted receipt settles —
	// committed before the kill, or typed ErrStopped — never a hang.
	settleReceipts(receipts, 30*time.Second, rep)
	if rep.Committed == 0 {
		rep.failf("nothing committed before the crash")
	}

	re, err := core.OpenChain(ccfg)
	if err != nil {
		rep.failf("recover: %v", err)
		return
	}
	re.Start()
	defer re.Stop()
	for _, n := range re.Nodes() {
		if got := n.Chain().Height(); got < durable {
			rep.failf("node %v recovered to height %d, below durable watermark %d", n.ID, got, durable)
		}
	}
	if err := re.VerifyReplication(); err != nil {
		rep.failf("post-recovery replication: %v", err)
	}
	// The recovered front door still admits, sheds, and commits.
	post := submitBurst(re, burstTxs("post", 3*cfg.Capacity, 0), rep)
	re.Flush()
	settleReceipts(post, 30*time.Second, rep)
	if !re.Await(core.AwaitSpec{Txs: len(post), Timeout: 30 * time.Second}) {
		rep.failf("recovered cluster stalled on post-crash workload")
	}
}
