package hotstuff

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"permchain/internal/consensus"
	"permchain/internal/crypto"
	"permchain/internal/network"
	"permchain/internal/quorumcert"
	"permchain/internal/types"
)

func cluster(t *testing.T, n int, opts ...network.Option) (*network.Network, []*Replica) {
	t.Helper()
	net := network.New(opts...)
	keys := crypto.NewKeyring(n)
	nodes := make([]types.NodeID, n)
	for i := range nodes {
		nodes[i] = types.NodeID(i)
	}
	reps := make([]*Replica, n)
	for i := range reps {
		reps[i] = New(consensus.Config{
			Self: types.NodeID(i), Nodes: nodes, Net: net, Keys: keys,
			Timeout: 150 * time.Millisecond,
		})
	}
	for _, r := range reps {
		r.Start()
	}
	t.Cleanup(func() {
		for _, r := range reps {
			r.Stop()
		}
	})
	return net, reps
}

func val(i int) (string, types.Hash) {
	v := fmt.Sprintf("hs-%d", i)
	return v, types.HashBytes([]byte(v))
}

func TestCommitsThreeChain(t *testing.T) {
	_, reps := cluster(t, 4)
	const k = 10
	for i := 0; i < k; i++ {
		v, d := val(i)
		reps[i%4].Submit(v, d)
	}
	for i, r := range reps {
		ds := consensus.WaitDecisions(r.Decisions(), k, 10*time.Second)
		if len(ds) != k {
			t.Fatalf("replica %d committed %d/%d", i, len(ds), k)
		}
	}
}

func TestAgreementOnOrder(t *testing.T) {
	_, reps := cluster(t, 4)
	const k = 12
	for i := 0; i < k; i++ {
		v, d := val(i)
		reps[0].Submit(v, d)
	}
	var ref []consensus.Decision
	for i, r := range reps {
		ds := consensus.WaitDecisions(r.Decisions(), k, 10*time.Second)
		if len(ds) != k {
			t.Fatalf("replica %d committed %d/%d", i, len(ds), k)
		}
		if ref == nil {
			ref = ds
			continue
		}
		for j := range ds {
			if ds[j].Digest != ref[j].Digest {
				t.Fatalf("replica %d position %d digest mismatch", i, j)
			}
		}
	}
}

func TestLinearMessageComplexity(t *testing.T) {
	// HotStuff's defining property: votes go only to the next leader, so
	// per-view traffic is O(n), not O(n²) like PBFT. With n=7, committing
	// a value must not generate n² vote messages per view.
	net, reps := cluster(t, 7)
	v, d := val(0)
	net.ResetStats()
	reps[0].Submit(v, d)
	if len(consensus.WaitDecisions(reps[1].Decisions(), 1, 10*time.Second)) != 1 {
		t.Fatal("no commit")
	}
	st := net.StatsSnapshot()
	votes := st.ByType[msgVote]
	proposals := st.ByType[msgProposal]
	if proposals == 0 {
		t.Fatal("no proposals counted")
	}
	viewsUsed := proposals/6 + 1 // each proposal broadcast = n-1 messages
	// Votes per view ≤ n (one per replica, to one leader).
	if votes > viewsUsed*7 {
		t.Fatalf("votes = %d for ~%d views of 7 nodes; vote traffic is not linear", votes, viewsUsed)
	}
}

func TestSilentLeaderNewView(t *testing.T) {
	// Liveness with a permanently silent replica needs a window of four
	// consecutive correct leader slots (proposer plus three QC
	// collectors), which round-robin rotation only provides for n >= 5:
	// with n=4 a permanently silent node occupies every fourth slot and a
	// consecutive three-chain can never form. Real deployments sidestep
	// this with leader reputation; here we use n=5.
	net, reps := cluster(t, 5)
	net.SetFilter(1, func(network.Message) []network.Message { return nil })
	const k = 5
	for i := 0; i < k; i++ {
		v, d := val(i)
		reps[0].Submit(v, d)
	}
	for _, idx := range []int{0, 2, 3, 4} {
		ds := consensus.WaitDecisions(reps[idx].Decisions(), k, 20*time.Second)
		if len(ds) != k {
			t.Fatalf("replica %d committed %d/%d with silent peer", idx, len(ds), k)
		}
	}
}

func TestNoDuplicateCommits(t *testing.T) {
	_, reps := cluster(t, 4)
	v, d := val(0)
	for i := 0; i < 3; i++ {
		reps[i].Submit(v, d)
	}
	ds := consensus.WaitDecisions(reps[3].Decisions(), 1, 5*time.Second)
	if len(ds) != 1 {
		t.Fatalf("committed %d", len(ds))
	}
	extra := consensus.WaitDecisions(reps[3].Decisions(), 1, 500*time.Millisecond)
	if len(extra) != 0 {
		t.Fatalf("duplicate commit: %v", extra)
	}
}

func TestQCVerification(t *testing.T) {
	net := network.New()
	keys := crypto.NewKeyring(4)
	nodes := []types.NodeID{0, 1, 2, 3}
	r := New(consensus.Config{Self: 0, Nodes: nodes, Net: net, Keys: keys})
	defer close(r.done)

	bh := types.HashBytes([]byte("block"))
	mkSig := func(id types.NodeID, view uint64, h types.Hash) []byte {
		hh := types.HashConcat([]byte(msgVote), consensus.U64(view), h[:])
		return keys.Sign(id, hh[:])
	}
	good := qc{View: 3, Block: bh}
	for _, id := range nodes[:3] {
		good.Signers = append(good.Signers, id)
		good.Sigs = append(good.Sigs, mkSig(id, 3, bh))
	}
	if !r.verifyQC(good) {
		t.Fatal("valid QC rejected")
	}
	// Too few signers.
	small := qc{View: 3, Block: bh, Signers: good.Signers[:2], Sigs: good.Sigs[:2]}
	if r.verifyQC(small) {
		t.Fatal("sub-quorum QC accepted")
	}
	// Duplicate signer.
	dup := qc{View: 3, Block: bh,
		Signers: []types.NodeID{0, 0, 1},
		Sigs:    [][]byte{mkSig(0, 3, bh), mkSig(0, 3, bh), mkSig(1, 3, bh)}}
	if r.verifyQC(dup) {
		t.Fatal("duplicate-signer QC accepted")
	}
	// Forged signature.
	forged := good
	forged.Sigs = append([][]byte{}, good.Sigs...)
	forged.Sigs[0] = []byte("garbage")
	if r.verifyQC(forged) {
		t.Fatal("forged QC accepted")
	}
	// Wrong view binding.
	wrongView := good
	wrongView.View = 4
	if r.verifyQC(wrongView) {
		t.Fatal("view-transplanted QC accepted")
	}
	// Genesis QC axiomatic.
	if !r.verifyQC(qc{View: 0, Block: r.genesis}) {
		t.Fatal("genesis QC rejected")
	}
	if r.verifyQC(qc{View: 0, Block: bh}) {
		t.Fatal("fake genesis QC accepted")
	}
}

// TestCrashRecoveryCatchUp crash-stops a replica, runs a workload it never
// sees, then rejoins a fresh incarnation on the same network and asserts
// ancestor fetching rebuilds the block tree and replays the complete
// decision log. n = 5 keeps rotation live while one slot is empty.
func TestCrashRecoveryCatchUp(t *testing.T) {
	const n = 5
	net := network.New()
	keys := crypto.NewKeyring(n)
	nodes := make([]types.NodeID, n)
	for i := range nodes {
		nodes[i] = types.NodeID(i)
	}
	mk := func(i int) *Replica {
		return New(consensus.Config{
			Self: types.NodeID(i), Nodes: nodes, Net: net, Keys: keys,
			Timeout: 150 * time.Millisecond,
		})
	}
	reps := make([]*Replica, n)
	for i := range reps {
		reps[i] = mk(i)
		reps[i].Start()
	}
	t.Cleanup(func() {
		for _, r := range reps {
			r.Stop()
		}
	})

	submit := func(i int) {
		v, d := val(i)
		reps[0].Submit(v, d)
	}
	const pre = 4
	for i := 0; i < pre; i++ {
		submit(i)
	}
	ref := consensus.WaitDecisions(reps[0].Decisions(), pre, 10*time.Second)
	for i := 1; i < n; i++ {
		if got := len(consensus.WaitDecisions(reps[i].Decisions(), pre, 10*time.Second)); got != pre {
			t.Fatalf("replica %d committed %d/%d before crash", i, got, pre)
		}
	}

	const victim = n - 1
	net.Crash(types.NodeID(victim))
	reps[victim].Stop()

	const during = 4
	for i := pre; i < pre+during; i++ {
		submit(i)
	}
	ref = append(ref, consensus.WaitDecisions(reps[0].Decisions(), during, 15*time.Second)...)
	if len(ref) != pre+during {
		t.Fatalf("live cluster committed %d/%d during crash", len(ref), pre+during)
	}

	// Restart: a fresh, empty incarnation rejoins the same network.
	net.Rejoin(types.NodeID(victim))
	net.Restore(types.NodeID(victim))
	reps[victim] = mk(victim)
	reps[victim].Start()

	// One post-restart probe keeps proposals flowing while catch-up runs.
	submit(pre + during)
	const total = pre + during + 1
	ref = append(ref, consensus.WaitDecisions(reps[0].Decisions(), 1, 15*time.Second)...)
	ds := consensus.WaitDecisions(reps[victim].Decisions(), total, 20*time.Second)
	if len(ds) != total {
		t.Fatalf("restarted replica caught up %d/%d decisions", len(ds), total)
	}
	for j, dec := range ds {
		if dec.Seq != uint64(j+1) || dec.Digest != ref[j].Digest {
			t.Fatalf("restarted replica decision %d = (seq %d, %v), want (seq %d, %v)",
				j, dec.Seq, dec.Digest, ref[j].Seq, ref[j].Digest)
		}
	}
}

// aggCluster builds a cluster in aggregate-vote mode: real Schnorr partials
// folded into constant-size QCs, one shared key set across replicas.
func aggCluster(t *testing.T, n int, batch bool) (*network.Network, []*Replica) {
	t.Helper()
	net := network.New()
	keys := crypto.NewKeyring(n)
	vkeys := quorumcert.NewKeys()
	nodes := make([]types.NodeID, n)
	for i := range nodes {
		nodes[i] = types.NodeID(i)
	}
	reps := make([]*Replica, n)
	for i := range reps {
		reps[i] = New(consensus.Config{
			Self: types.NodeID(i), Nodes: nodes, Net: net, Keys: keys,
			Timeout:        150 * time.Millisecond,
			AggregateVotes: true, VoteKeys: vkeys, BatchVotes: batch,
		})
	}
	for _, r := range reps {
		r.Start()
	}
	t.Cleanup(func() {
		for _, r := range reps {
			r.Stop()
		}
	})
	return net, reps
}

func TestAggregatedCommits(t *testing.T) {
	_, reps := aggCluster(t, 4, false)
	const k = 8
	for i := 0; i < k; i++ {
		v, d := val(i)
		reps[i%4].Submit(v, d)
	}
	var ref []consensus.Decision
	for i, r := range reps {
		ds := consensus.WaitDecisions(r.Decisions(), k, 15*time.Second)
		if len(ds) != k {
			t.Fatalf("replica %d committed %d/%d in aggregate mode", i, len(ds), k)
		}
		if ref == nil {
			ref = ds
			continue
		}
		for j := range ds {
			if ds[j].Digest != ref[j].Digest {
				t.Fatalf("replica %d position %d digest mismatch", i, j)
			}
		}
	}
}

func TestAggregatedWithBatchingCommits(t *testing.T) {
	_, reps := aggCluster(t, 5, true)
	const k = 6
	for i := 0; i < k; i++ {
		v, d := val(i)
		reps[0].Submit(v, d)
	}
	for i, r := range reps {
		ds := consensus.WaitDecisions(r.Decisions(), k, 15*time.Second)
		if len(ds) != k {
			t.Fatalf("replica %d committed %d/%d with batched votes", i, len(ds), k)
		}
	}
}

func TestAggregatedQCVerification(t *testing.T) {
	net := network.New()
	keys := crypto.NewKeyring(4)
	vkeys := quorumcert.NewKeys()
	nodes := []types.NodeID{0, 1, 2, 3}
	r := New(consensus.Config{Self: 0, Nodes: nodes, Net: net, Keys: keys,
		AggregateVotes: true, VoteKeys: vkeys})
	defer close(r.done)

	bh := types.HashBytes([]byte("block"))
	st := r.voteStatement(3, bh)
	agg := quorumcert.NewAggregator(vkeys, nodes, 3, st)
	for _, id := range nodes[:3] {
		if _, err := agg.Add(vkeys.Sign(id, st)); err != nil {
			t.Fatal(err)
		}
	}
	cert, err := agg.Cert()
	if err != nil {
		t.Fatal(err)
	}
	good := qc{View: 3, Block: bh, Agg: cert}
	if !r.verifyQC(good) {
		t.Fatal("valid aggregate QC rejected")
	}
	// View transplant: statement no longer matches the QC coordinates.
	wrongView := good
	wrongView.View = 4
	if r.verifyQC(wrongView) {
		t.Fatal("view-transplanted aggregate QC accepted")
	}
	// Block transplant.
	wrongBlock := good
	wrongBlock.Block = types.HashBytes([]byte("other"))
	if r.verifyQC(wrongBlock) {
		t.Fatal("block-transplanted aggregate QC accepted")
	}
	// Inflated bitmap breaks the aggregate equation.
	inflated := *cert
	inflated.Bitmap = append([]uint64(nil), cert.Bitmap...)
	inflated.Bitmap[0] |= 1 << 3
	if r.verifyQC(qc{View: 3, Block: bh, Agg: &inflated}) {
		t.Fatal("bitmap-inflated aggregate QC accepted")
	}
	// A counted-mode replica rejects aggregate QCs: its quorum evidence is
	// per-signer signatures.
	counted := New(consensus.Config{Self: 1, Nodes: nodes, Net: net, Keys: keys})
	defer close(counted.done)
	if counted.verifyQC(good) {
		t.Fatal("counted-mode replica accepted an aggregate QC")
	}
	// Genesis stays axiomatic in aggregate mode.
	if !r.verifyQC(qc{View: 0, Block: r.genesis}) {
		t.Fatal("genesis QC rejected in aggregate mode")
	}
}

// TestLivenessAfterLatencySpike is the n=4 pacemaker regression. A burst
// of link delays longer than the view timeout (with loss in one schedule)
// makes replicas time out at different moments: proposals land on forks
// the chain abandons, views drift apart, and proposals arrive out of
// order so a replica lacks the blocks below a three-chain. Once the links
// calm down, every request must commit on every replica in one order, in
// counted and in aggregated vote mode.
func TestLivenessAfterLatencySpike(t *testing.T) {
	schedules := []struct {
		name string
		seed int64
		slow int // replica whose links are delayed; -1 delays every link
		drop float64
	}{
		{"all-links", 5, -1, 0},
		{"slow-replica", 8, 0, 0},
		{"lossy", 3, -1, 0.3},
	}
	for _, mode := range []string{"counted", "aggregated"} {
		for _, sc := range schedules {
			t.Run(mode+"/"+sc.name, func(t *testing.T) {
				var net *network.Network
				var reps []*Replica
				if mode == "counted" {
					net, reps = cluster(t, 4)
				} else {
					net, reps = aggCluster(t, 4, false)
				}
				var mu sync.Mutex
				rng := rand.New(rand.NewSource(sc.seed))
				net.SetLatency(func(from, to types.NodeID) time.Duration {
					if sc.slow >= 0 && from != types.NodeID(sc.slow) && to != types.NodeID(sc.slow) {
						return 0
					}
					mu.Lock()
					defer mu.Unlock()
					return time.Duration(rng.Intn(400)) * time.Millisecond
				})
				net.SetDropRate(sc.drop)
				const k = 12
				for i := 0; i < k; i++ {
					v, d := val(i)
					reps[i%4].Submit(v, d)
				}
				time.Sleep(1200 * time.Millisecond)
				net.SetDropRate(0)
				net.SetLatency(func(_, _ types.NodeID) time.Duration { return 0 })
				var ref []consensus.Decision
				for i, r := range reps {
					ds := consensus.WaitDecisions(r.Decisions(), k, 10*time.Second)
					if len(ds) != k {
						t.Fatalf("replica %d committed %d/%d after the spike", i, len(ds), k)
					}
					if ref == nil {
						ref = ds
						continue
					}
					for j := range ds {
						if ds[j].Digest != ref[j].Digest {
							t.Fatalf("replica %d position %d digest mismatch", i, j)
						}
					}
				}
			})
		}
	}
}
