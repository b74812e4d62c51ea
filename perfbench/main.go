// Command perfbench is permchain's benchmark. It runs one named workload
// with a given seed against the chain's public API, checks the outputs,
// and prints the end-to-end metrics, or with -trace 1 the per-layer
// metrics of a separately traced pass. The last line of standard output
// is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": N, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// Run it through run.sh, which builds it from source:
//
//	bash perfbench/run.sh --workload ledger-durable --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"permchain/internal/core"
	"permchain/internal/mempool"
	"permchain/internal/obs"
	"permchain/internal/types"
)

const (
	// drainTimeout bounds every wait for receipts to settle.
	drainTimeout = 30 * time.Second
	// warmup is the traffic each set-up runs before measuring.
	warmup = time.Second
	// minWindowSamples is the fewest commits a one-second window needs
	// for its p99 to count: at 100, at least one sample lies beyond it.
	minWindowSamples = 100
	// setupRepeats is how many times an end-to-end run sets up, so
	// setup_s is a median; the last deployment is the one measured.
	setupRepeats = 3
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	commit   string
	workdir  string
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload name: ledger-durable, fabric-xov or cross-shard-2pc")
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.IntVar(&o.seconds, "seconds", 10, "measured window in seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs an untraced and a traced pass and prints per-layer metrics")
	fs.StringVar(&o.commit, "commit", "unknown", "identity of the code under test, recorded with the result")
	fs.StringVar(&o.workdir, "workdir", ".bench_build", "directory for stores and span dumps")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	w, err := findWorkload(o.workload)
	if err != nil || o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments: workload=%q seconds=%d trace=%d: %v\n", o.workload, o.seconds, trace, err)
		return 2
	}
	dir := filepath.Join(o.workdir, fmt.Sprintf("run-%s-%d", w.name, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	var rep *report
	if o.trace {
		rep, err = measureLayers(w, o, dir)
	} else {
		rep, err = measureEndToEnd(w, o, dir)
	}
	if err != nil {
		// A failed check prints no measurements.
		fmt.Fprintf(stderr, "perfbench: %s seed %d: check failed: %v\n", w.name, o.seed, err)
		attempted, failed := 1, 1
		if rep != nil && rep.attempted > 0 {
			attempted, failed = rep.attempted, rep.failed
		}
		writeResult(stdout, false, attempted, failed, nil)
		return 1
	}
	fmt.Fprintf(stdout, "# perfbench workload=%s seed=%d seconds=%d trace=%d\n", w.name, o.seed, o.seconds, trace)
	fmt.Fprintf(stdout, "# why: %s\n", w.why)
	fmt.Fprintf(stdout, "# env: %s\n", describeEnv(o, dir))
	for _, l := range rep.lines {
		fmt.Fprintln(stdout, l)
	}
	writeResult(stdout, true, rep.attempted, rep.failed, rep.metrics)
	return 0
}

// report is a run's printable outcome: notes with sample counts and
// ratio bases, and the metrics of the final JSON line.
type report struct {
	attempted, failed int
	lines             []string
	metrics           []metric
}

type metric struct {
	name  string
	value float64
	unit  string
}

// add records a metric with a note giving its base.
func (r *report) add(name string, value float64, unit, base string) {
	if math.IsNaN(value) || math.IsInf(value, 0) {
		value = 0
	}
	r.metrics = append(r.metrics, metric{name, value, unit})
	r.note("%-26s %14.6f %-6s %s", name, value, unit, base)
}

func (r *report) note(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

func writeResult(w io.Writer, correct bool, attempted, failed int, ms []metric) {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{correct, attempted, failed, map[string]val{}}
	for _, m := range ms {
		out.Metrics[m.name] = val{m.value, m.unit}
	}
	b, _ := json.Marshal(out) // plain structs of numbers and strings always marshal
	fmt.Fprintln(w, string(b))
}

// pass is one measured window on a freshly set-up deployment.
type pass struct {
	cfg      core.Config
	setups   []time.Duration
	txs      []*types.Transaction
	run      *Run
	tally    Tally
	cpu      time.Duration
	heapMB   float64
	recovery time.Duration

	// Traced passes only: the registry and block heights around the
	// window, the peak mempool occupancy sampled during it, and spans.
	before, after obs.Snapshot
	heights0      []uint64
	heights1      []uint64
	occMax        int
	spans         *spanLog

	participants []int // shards each measured tx touches
	ledgers      [][]*types.Block
	hashes       []types.Hash
}

// runPass sets the workload up (setups times, keeping the last), drives
// it for the window, and checks every output: the driver's accounting,
// replication, conservation of the funded total, exactly-once ledger
// inclusion, cross-shard atomicity and locks, and recovery to the same
// state.
func runPass(w *workloadSpec, o options, dir string, traced bool, setups int) (*pass, error) {
	window := time.Duration(o.seconds) * time.Second
	nWarm, nRun := w.txCount(warmup), w.txCount(window)
	p := &pass{}
	if traced {
		p.spans = newSpanLog()
	}
	var d deployment
	storeDir := ""
	for k := 0; k < setups; k++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return p, err
			}
			os.RemoveAll(storeDir)
		}
		if w.durable() {
			storeDir = filepath.Join(dir, fmt.Sprintf("store-traced%v-%d", traced, k))
		}
		var ob *obs.Obs
		if traced {
			ob = obs.New()
		}
		p.cfg = w.config(storeDir, ob)
		// Fresh transaction objects per set-up: the chain keeps the ones
		// it commits.
		all := w.traffic(o.seed, nWarm+nRun)
		runtime.GC() // collect earlier set-ups outside the timed section
		t0 := time.Now()
		var err error
		d, err = w.setup(p.cfg, all[:nWarm], p.spans)
		if err != nil {
			return p, fmt.Errorf("set-up: %w", err)
		}
		p.setups = append(p.setups, time.Since(t0))
		p.txs = all[nWarm:]
	}

	stopped := false
	defer func() {
		if !stopped {
			d.stop() // a check already failed; its error is the one to report
		}
	}()
	runtime.GC() // start the window without set-up garbage pending
	var sampler *occupancySampler
	if traced {
		p.before = d.metrics()
		sampler = sampleOccupancy(d)
	}
	p.heights0 = d.heights()
	cpu0 := cpuTime()
	tRun := time.Now()
	p.run = w.drive(d, p.txs, window, traced)
	settled := p.run.wait(drainTimeout)
	p.cpu = cpuTime() - cpu0
	p.heights1 = d.heights()
	if traced {
		p.occMax = sampler.stop()
		p.after = d.metrics()
		p.spans.addRun(p.run, tRun)
	}
	p.tally = p.run.tally()
	var ms runtime.MemStats
	// Two collections: the first moves sync.Pool contents to the victim
	// cache, the second frees them, so pooled buffers do not count as
	// live.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	p.heapMB = float64(ms.HeapAlloc) / 1e6

	if !settled {
		return p, fmt.Errorf("%d transactions unsettled %v after the window", p.tally.Outcomes[Unsettled], drainTimeout)
	}
	if err := p.run.check(); err != nil {
		return p, err
	}
	if err := d.verify(); err != nil {
		return p, fmt.Errorf("verify: %w", err)
	}
	if got := d.balance(w.keys); got != w.fundedTotal {
		return p, fmt.Errorf("conservation: keys sum to %d, funded %d", got, w.fundedTotal)
	}
	p.participants = make([]int, len(p.txs))
	for i, tx := range p.txs {
		p.participants[i] = d.shardsOf(tx)
	}
	p.ledgers, p.hashes = d.ledgers(), d.stateHashes()
	if err := checkExactlyOnce(p); err != nil {
		return p, err
	}
	t0 := time.Now()
	stopped = true
	if err := d.stop(); err != nil {
		return p, err
	}
	p.spans.add("stop", 0, t0, time.Now())

	if storeDir != "" {
		t0 = time.Now()
		r, err := open(p.cfg, true)
		if err != nil {
			return p, fmt.Errorf("recovery: %w", err)
		}
		got := r.stateHashes()
		err = r.verify()
		p.recovery = time.Since(t0)
		p.spans.add("recovery/open", 0, t0, time.Now())
		if serr := r.stop(); err == nil {
			err = serr
		}
		if err != nil {
			return p, fmt.Errorf("recovery: %w", err)
		}
		for i := range got {
			if got[i] != p.hashes[i] {
				return p, fmt.Errorf("recovery: shard %d state %s, before stop %s", i, got[i].Hex(), p.hashes[i].Hex())
			}
		}
	}
	return p, nil
}

// setup builds and starts a deployment, funds its accounts and runs the
// warm-up traffic.
func (w *workloadSpec) setup(cfg core.Config, warm []*types.Transaction, sp *spanLog) (deployment, error) {
	t0 := time.Now()
	d, err := open(cfg, false)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	sp.add("setup/open", 0, t0, t1)
	if fund := w.fund(); len(fund) > 0 {
		// A rate of 1e9 tx/s makes every funding transaction due at once.
		r := runOpenLoop(wallClock{}, 1e9, fund, d.submit, isShed, false)
		ok := r.wait(drainTimeout)
		if t := r.tally(); !ok || t.Outcomes[Committed] != len(fund) {
			d.stop()
			return nil, fmt.Errorf("funding: %d of %d transactions committed", t.Outcomes[Committed], len(fund))
		}
	}
	t2 := time.Now()
	sp.add("setup/fund", 0, t1, t2)
	r := w.drive(d, warm, warmup, false)
	if !r.wait(drainTimeout) {
		d.stop()
		return nil, fmt.Errorf("warm-up: %d transactions unsettled", r.tally().Outcomes[Unsettled])
	}
	sp.add("setup/warmup", 0, t2, time.Now())
	return d, nil
}

// checkExactlyOnce checks that every admitted single-shard transaction
// of the window sits in the ledger exactly once, and no shed one does.
// Cross-shard transactions are recorded under their 2PC phase records
// instead, which the atomicity audit checks.
func checkExactlyOnce(p *pass) error {
	want := make(map[string]int, len(p.txs))
	for i, tx := range p.txs {
		if i >= p.run.offered || p.participants[i] != 1 {
			continue
		}
		switch Outcome(p.run.outcome[i].Load()) {
		case Shed, SubmitError:
			want[tx.ID] = 0
		default:
			want[tx.ID] = 1
		}
	}
	got := make(map[string]int, len(want))
	for _, blocks := range p.ledgers {
		for _, b := range blocks {
			for _, tx := range b.Txs {
				if _, ok := want[tx.ID]; ok {
					got[tx.ID]++
				}
			}
		}
	}
	for id, n := range want {
		if got[id] != n {
			return fmt.Errorf("exactly-once: transaction %s appears %d times in the ledger, want %d", id, got[id], n)
		}
	}
	return nil
}

func isShed(err error) bool { return mempool.IsReject(err) }

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// occupancySampler tracks the peak mempool occupancy while a traced
// window runs (the pool's own high-water mark also covers set-up).
type occupancySampler struct {
	quit chan struct{}
	wg   sync.WaitGroup
	max  int
}

func sampleOccupancy(d deployment) *occupancySampler {
	s := &occupancySampler{quit: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.quit:
				return
			case <-t.C:
				if n := d.occupancy(); n > s.max {
					s.max = n
				}
			}
		}
	}()
	return s
}

func (s *occupancySampler) stop() int {
	close(s.quit)
	s.wg.Wait()
	return s.max
}

// measureEndToEnd is the untraced run: set up setupRepeats times, drive
// the last deployment, and report what a user sees.
func measureEndToEnd(w *workloadSpec, o options, dir string) (*report, error) {
	p, err := runPass(w, o, dir, false, setupRepeats)
	rep := &report{}
	if p != nil && p.run != nil {
		rep.attempted, rep.failed = p.tally.Offered, p.tally.Errors()
	}
	if err != nil {
		return rep, err
	}
	setup := make([]float64, len(p.setups))
	for i, d := range p.setups {
		setup[i] = d.Seconds()
	}
	lat := p.run.committedLatencies(nil)
	p50, p99 := quantile(lat, 0.50), quantile(lat, 0.99)
	wp99 := p.run.windowedQuantile(0.99, time.Second, minWindowSamples)
	committed := p.tally.Outcomes[Committed]
	elapsed := p.run.elapsed()

	rep.add("setup_s", median(append([]float64(nil), setup...)), "s", fmt.Sprintf("median of %d set-ups %.3f", len(setup), setup))
	rep.add("commit_p50_ms", p50.Value, "ms", quantileBase(p50))
	rep.add("commit_p99_ms", wp99.Value, "ms", wp99.base())
	rep.add("goodput_tps", float64(committed)/elapsed.Seconds(), "1/s", fmt.Sprintf("%d committed in %.3fs", committed, elapsed.Seconds()))
	rep.add("heap_mb", p.heapMB, "MB", "live heap after GC, deployment still running")
	rep.note("# whole-window commit p99 %.3fms (%s)", p99.Value, quantileBase(p99))
	commonNotes(rep, w, p)
	return rep, nil
}

// commonNotes prints the outcome accounting and the informational
// figures of a pass.
func commonNotes(rep *report, w *workloadSpec, p *pass) {
	t := p.tally
	rep.note("# outcomes: offered=%d committed=%d aborted=%d failed=%d orphaned=%d shed=%d submit_errors=%d unsettled=%d",
		t.Offered, t.Outcomes[Committed], t.Outcomes[Aborted], t.Outcomes[Failed], t.Outcomes[Orphaned],
		t.Outcomes[Shed], t.Outcomes[SubmitError], t.Outcomes[Unsettled])
	fr := Ratio{int64(t.NotCommitted()), int64(t.Offered)}
	ar := Ratio{int64(t.Outcomes[Aborted]), int64(t.Offered)}
	rep.note("# failed_ratio %.6f (%d/%d not committed)  abort_ratio %.6f (%d/%d)", fr.Value(), fr.Num, fr.Den, ar.Value(), ar.Num, ar.Den)
	lag := quantile(p.run.lags(), 0.99)
	rep.note("# driver lag p99 %.3fms (%s); load: %s", lag.Value, quantileBase(lag), loadShape(w, p.run))
	if p.recovery > 0 {
		rep.note("# recovery %.3fs (open until state hash and replication verified)", p.recovery.Seconds())
	}
}

func loadShape(w *workloadSpec, r *Run) string {
	if w.rate > 0 {
		return fmt.Sprintf("open loop at %.0f tx/s, %d wake-ups", w.rate, r.wakeups)
	}
	return fmt.Sprintf("closed loop, %d clients, %d submitters", w.clients, submitters())
}

func quantileBase(q Quantile) string {
	return fmt.Sprintf("n=%d, %d beyond", q.N, q.Beyond)
}

// measureLayers runs an untraced pass and a traced one on the same
// inputs, replays the traced pass's blocks through each layer, and
// reports the per-layer metrics.
func measureLayers(w *workloadSpec, o options, dir string) (*report, error) {
	rep := &report{}
	plain, err := runPass(w, o, dir, false, 1)
	if plain != nil && plain.run != nil {
		rep.attempted, rep.failed = plain.tally.Offered, plain.tally.Errors()
	}
	if err != nil {
		return rep, fmt.Errorf("untraced pass: %w", err)
	}
	tr, err := runPass(w, o, dir, true, 1)
	if tr != nil && tr.run != nil {
		rep.attempted += tr.tally.Offered
		rep.failed += tr.tally.Errors()
	}
	if err != nil {
		return rep, fmt.Errorf("traced pass: %w", err)
	}
	t0 := time.Now()
	rs, err := replayAll(tr.cfg, tr.ledgers, tr.hashes, filepath.Join(dir, "replay"))
	if err != nil {
		return rep, fmt.Errorf("replay: %w", err)
	}
	tr.spans.add("replay", 0, t0, time.Now())
	layerMetrics(rep, w, plain, tr, &rs)
	commonNotes(rep, w, plain)
	if path, err := tr.spans.write(o, w); err != nil {
		rep.note("# spans not written: %v", err)
	} else {
		rep.note("# spans: %s", path)
	}
	for _, l := range tr.spans.summary() {
		rep.note("# span %s", l)
	}
	return rep, nil
}

// layerMetrics derives every per-layer metric. Registry counters and
// histogram means are differences across the traced window.
func layerMetrics(rep *report, w *workloadSpec, plain, tr *pass, rs *replayStats) {
	delta := func(name string) int64 { return tr.after.Counters[name] - tr.before.Counters[name] }
	// The registry's histograms have power-of-two buckets, so their
	// percentiles only move in factors of two; the window's mean, from
	// the sums and counts on either side of it, is exact.
	histMean := func(metricName, hname string) {
		a, b := tr.after.Histograms[hname], tr.before.Histograms[hname]
		mean := Ratio{a.Sum - b.Sum, a.Count - b.Count}
		rep.add(metricName, mean.Value()/1e6, "ms", fmt.Sprintf("window mean of %s, n=%d", hname, mean.Den))
	}
	var blocks, blockTxs int64
	for i := range tr.heights1 {
		blocks += int64(tr.heights1[i] - tr.heights0[i])
		for _, b := range tr.ledgers[i] {
			if b.Header.Height > tr.heights0[i] && b.Header.Height <= tr.heights1[i] {
				blockTxs += int64(len(b.Txs))
			}
		}
	}
	committed := int64(tr.tally.Outcomes[Committed])
	blockSize := int64(tr.cfg.BlockSize)
	if blockSize == 0 {
		blockSize = 64 // core's default
	}
	med := func(xs []float64) float64 { return median(append([]float64(nil), xs...)) }

	fill := Ratio{blockTxs, blocks * blockSize}
	rep.add("mempool.batch_fill", fill.Value(), "ratio", fmt.Sprintf("%d txs / (%d blocks x %d)", blockTxs, blocks, blockSize))
	histMean("mempool.handoff_ms", "mempool/admit_to_handoff")
	rep.add("mempool.occupancy_max", float64(tr.occMax), "count", "peak sampled every 1ms during the window")

	sub := durationsMs(tr.run.submitDur[:tr.run.offered])
	rep.add("core.submit_us", median(sub)*1000, "us", fmt.Sprintf("median SubmitAsync call, n=%d", len(sub)))
	histMean("core.submit_to_apply_ms", "core/submit_to_apply")
	aq := tr.after.Histograms["core/apply_queue_len"]
	rep.add("core.apply_queue_max", float64(aq.Max), "count", fmt.Sprintf("max of core/apply_queue_len since set-up, n=%d", aq.Count))

	histMean("pbft.commit_ms", "pbft/commit_latency")
	sent := delta("net/sent")
	rep.add("pbft.msgs_per_block", Ratio{sent, blocks}.Value(), "count", fmt.Sprintf("%d messages / %d blocks", sent, blocks))
	rep.add("pbft.view_changes", float64(delta("pbft/view_changes")), "count", "during the window")

	rep.add("wire.encode_us", med(rs.encodeUs), "us", fmt.Sprintf("median per-tx EncodeFrame over %d blocks", len(rs.encodeUs)))
	rep.add("wire.decode_us", med(rs.decodeUs), "us", fmt.Sprintf("median per-tx DecodeFrame over %d blocks", len(rs.decodeUs)))
	wb := delta("net/wire_bytes_out")
	rep.add("net.bytes_per_tx", Ratio{wb, committed}.Value(), "B", fmt.Sprintf("%d wire bytes / %d committed (0 in struct mode)", wb, committed))
	histMean("net.delivery_ms", "net/delivery_latency")

	rep.add("arch.endorse_us", med(rs.endorseUs), "us", fmt.Sprintf("median per-tx Endorse of up to %d txs per block over %d blocks", endorsePerBlock, len(rs.endorseUs)))
	histMean("arch.validate_ms", "arch/xov/validate")
	rep.add("arch.execute_ms", med(rs.executeMs), "ms", fmt.Sprintf("median per-block %v engine replay over %d blocks", tr.cfg.Arch, len(rs.executeMs)))
	rep.add("arch.replay_us_per_tx", med(rs.execUsPerTx), "us", fmt.Sprintf("median per-block engine time / txs over %d blocks", len(rs.execUsPerTx)))
	useful := Ratio{committed, int64(tr.tally.Offered)}
	rep.add("arch.useful_ratio", useful.Value(), "ratio", fmt.Sprintf("%d committed / %d attempted", useful.Num, useful.Den))

	rep.add("ledger.append_us", med(rs.ledgerAppendUs), "us", fmt.Sprintf("median per-block Chain.Append over %d blocks", len(rs.ledgerAppendUs)))
	rep.add("store.append_us", med(rs.storeAppendUs), "us", fmt.Sprintf("median per-block AppendBlock over %d blocks", len(rs.storeAppendUs)))
	rep.add("store.fsync_ms", med(rs.fsyncMs), "ms", fmt.Sprintf("median Sync after a block, n=%d", len(rs.fsyncMs)))
	fsyncs := delta("store/fsyncs")
	rep.add("store.fsyncs_per_block", Ratio{fsyncs, blocks * replicas}.Value(), "count",
		fmt.Sprintf("%d live fsyncs / (%d blocks x %d replicas) (0 without a store)", fsyncs, blocks, replicas))
	rep.add("store.snapshot_ms", med(rs.snapshotMs), "ms", fmt.Sprintf("WriteSnapshot of the replayed state, n=%d", len(rs.snapshotMs)))
	rep.add("store.replay_blocks_per_s", float64(rs.replayed)/rs.replayTime.Seconds(), "1/s",
		fmt.Sprintf("%d blocks read back in %.3fms", rs.replayed, ms(rs.replayTime)))

	intra := quantile(tr.run.committedLatencies(func(i int) bool { return tr.participants[i] == 1 }), 0.5)
	crossLat := tr.run.committedLatencies(func(i int) bool { return tr.participants[i] > 1 })
	c50, c99 := quantile(crossLat, 0.5), quantile(crossLat, 0.99)
	var crossOffered, crossAborted int64
	for i := 0; i < tr.run.offered; i++ {
		if tr.participants[i] > 1 {
			crossOffered++
			if Outcome(tr.run.outcome[i].Load()) == Aborted {
				crossAborted++
			}
		}
	}
	rep.add("shard.intra_p50_ms", intra.Value, "ms", quantileBase(intra))
	rep.add("shard.cross_p50_ms", c50.Value, "ms", quantileBase(c50))
	rep.add("shard.cross_p99_ms", c99.Value, "ms", quantileBase(c99))
	ca := Ratio{crossAborted, crossOffered}
	rep.add("shard.cross_abort_ratio", ca.Value(), "ratio", fmt.Sprintf("%d aborted / %d cross-shard", ca.Num, ca.Den))

	cpuPlain := Ratio{int64(plain.cpu), int64(plain.tally.Outcomes[Committed])}
	cpuTraced := Ratio{int64(tr.cpu), committed}
	rep.add("obs.overhead_pct", (cpuTraced.Value()/cpuPlain.Value()-1)*100, "%",
		fmt.Sprintf("CPU per committed tx traced %.1fus vs untraced %.1fus", cpuTraced.Value()/1e3, cpuPlain.Value()/1e3))
	lag := quantile(plain.run.lags(), 0.99)
	rep.add("driver.lag_ms", lag.Value, "ms", "p99 of the untraced pass, "+quantileBase(lag))

	pt := plain.tally
	fr := Ratio{int64(pt.NotCommitted()), int64(pt.Offered)}
	rep.add("failed_ratio", fr.Value(), "ratio", fmt.Sprintf("%d not committed / %d offered (untraced pass)", fr.Num, fr.Den))
	ar := Ratio{int64(pt.Outcomes[Aborted]), int64(pt.Offered)}
	rep.add("abort_ratio", ar.Value(), "ratio", fmt.Sprintf("%d aborted / %d offered (untraced pass)", ar.Num, ar.Den))
	rec := "OpenChain until state verified, untraced pass"
	if !w.durable() {
		rec = "in-memory workload, no recovery"
	}
	rep.add("recovery_s", plain.recovery.Seconds(), "s", rec)

	lat := tr.run.committedLatencies(nil)
	t50, p50 := quantile(lat, 0.5), quantile(plain.run.committedLatencies(nil), 0.5)
	rep.note("# traced commit p50 %.3fms vs untraced %.3fms", t50.Value, p50.Value)
}

// describeEnv records where and on what the result was measured.
func describeEnv(o options, dir string) string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d cpu=%q go=%s store_fs=%s commit=%s seed=%d",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version(), fsType(dir), o.commit, o.seed)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	const key = "model name"
	for _, line := range strings.Split(string(b), "\n") {
		if name, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == key {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir, by its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x58465342: "xfs", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
		0x9123683E: "btrfs", 0x6969: "nfs", 0x65735546: "fuse", 0x2FC12FC1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// spanLog keeps the spans the benchmark records around its own calls
// into the system, in memory until the run ends. A nil log records
// nothing, so untraced passes pay nothing.
type spanLog struct {
	base time.Time
	recs []spanRec
}

type spanRec struct {
	Name    string `json:"name"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

func newSpanLog() *spanLog { return &spanLog{base: time.Now()} }

// add records a span and returns its id (ids start at 1; parent 0 is
// the root).
func (s *spanLog) add(name string, parent int, start, end time.Time) int {
	if s == nil {
		return 0
	}
	id := len(s.recs) + 1
	s.recs = append(s.recs, spanRec{name, id, parent, start.Sub(s.base).Nanoseconds(), end.Sub(s.base).Nanoseconds()})
	return id
}

// addRun records the window and, per transaction, a span from its
// intended send time to settlement with its SubmitAsync call as child.
func (s *spanLog) addRun(r *Run, started time.Time) {
	if s == nil {
		return
	}
	root := s.add("run", 0, started, r.start.Add(r.elapsed()))
	for i := 0; i < r.offered; i++ {
		end := r.start.Add(time.Duration(r.settledAt[i].Load()))
		if Outcome(r.outcome[i].Load()) >= Shed {
			end = r.start.Add(r.submitted[i] + r.submitDur[i])
		}
		tx := s.add("tx", root, r.start.Add(r.intended[i]), end)
		sub := r.start.Add(r.submitted[i])
		s.add("tx/submit", tx, sub, sub.Add(r.submitDur[i]))
	}
}

// summary gives, per span name, the count, total time and self time:
// total minus the part of its interval that its direct children cover
// (children may overlap, as concurrent transactions of one run do).
func (s *spanLog) summary() []string {
	type agg struct {
		n           int
		total, self int64
	}
	kids := map[int][][2]int64{}
	for _, r := range s.recs {
		if r.Parent != 0 {
			kids[r.Parent] = append(kids[r.Parent], [2]int64{r.StartNs, r.EndNs})
		}
	}
	by := map[string]*agg{}
	for _, r := range s.recs {
		a := by[r.Name]
		if a == nil {
			a = &agg{}
			by[r.Name] = a
		}
		a.n++
		a.total += r.EndNs - r.StartNs
		a.self += r.EndNs - r.StartNs - covered(r.StartNs, r.EndNs, kids[r.ID])
	}
	keys := make([]string, 0, len(by))
	for k := range by {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]string, 0, len(keys))
	for _, k := range keys {
		a := by[k]
		out = append(out, fmt.Sprintf("%-13s n=%-6d total=%11.3fms self=%11.3fms", k, a.n, float64(a.total)/1e6, float64(a.self)/1e6))
	}
	return out
}

// covered is the length of [lo, hi) that the union of ivs covers.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var sum int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			sum += b - a
			cur = b
		}
	}
	return sum
}

// write stores the spans as JSON lines under the work directory.
func (s *spanLog) write(o options, w *workloadSpec) (string, error) {
	dir := filepath.Join(o.workdir, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", w.name, o.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	for _, r := range s.recs {
		if err := enc.Encode(r); err != nil {
			f.Close()
			return "", err
		}
	}
	return path, f.Close()
}
