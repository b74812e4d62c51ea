package pbft

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"permchain/internal/consensus"
	"permchain/internal/crypto"
	"permchain/internal/network"
	"permchain/internal/obs"
	"permchain/internal/types"
)

// harness drives one replica of an n=4 group without starting it: the
// test goroutine plays the event loop, delivering peer messages through
// onMessage (signature checks included) in a fixed order.
type harness struct {
	t        *testing.T
	r        *Replica
	o        *obs.Obs
	peers    []consensus.Config // signing identities, indexed by node
	verified int                // onVerify calls
}

func newHarness(t *testing.T, self types.NodeID) *harness {
	t.Helper()
	const n = 4
	keys := crypto.NewKeyring(n)
	nodes := make([]types.NodeID, n)
	peers := make([]consensus.Config, n)
	for i := range nodes {
		nodes[i] = types.NodeID(i)
		peers[i] = consensus.Config{Self: types.NodeID(i), Nodes: nodes, Keys: keys}
	}
	o := obs.New()
	h := &harness{t: t, o: o, peers: peers}
	h.r = New(consensus.Config{Self: self, Nodes: nodes, Net: network.New(), Keys: keys,
		Timeout: time.Hour, Obs: o})
	h.r.onVerify = func(string, uint64) { h.verified++ }
	return h
}

func (h *harness) deliver(from types.NodeID, typ string, payload any) {
	h.r.onMessage(network.Message{From: from, To: h.r.cfg.Self, Type: typ, Payload: payload})
}

func (h *harness) prePrepare(from types.NodeID, view, seq uint64, value string) types.Hash {
	d := types.HashBytes([]byte(value))
	h.deliver(from, msgPrePrepare, prePrepare{View: view, Seq: seq, Digest: d, Value: value,
		Sig: h.peers[from].SignPart([]byte(msgPrePrepare), consensus.U64(view), consensus.U64(seq), d[:])})
	return d
}

func (h *harness) vote(from types.NodeID, typ string, view, seq uint64, d types.Hash, forged bool) {
	sig := h.peers[from].SignPart([]byte(typ), consensus.U64(view), consensus.U64(seq), d[:])
	if forged {
		sig = h.peers[(from+1)%4].SignPart([]byte(typ), consensus.U64(view), consensus.U64(seq), d[:])
	}
	h.deliver(from, typ, vote{View: view, Seq: seq, Digest: d, Sig: sig})
}

func (h *harness) unverified() int64 {
	return h.o.Reg.Snapshot().Counters["pbft/votes_unverified"]
}

// decisions drains the replica's decision channel without blocking.
func (h *harness) decisions() []consensus.Decision {
	var out []consensus.Decision
	for {
		select {
		case d := <-h.r.decCh:
			out = append(out, d)
		default:
			return out
		}
	}
}

func TestForgedVotesRejectedBeforeQuorumDroppedAfter(t *testing.T) {
	h := newHarness(t, 1) // a backup of view 0
	d := h.prePrepare(0, 0, 1, "v1")
	s := h.r.slots[1]
	prepares := func() int { return s.prepares.Count(viewKey(0), d) }
	commits := func() int { return s.commits.Count(viewKey(0), d) }

	// Before quorum every vote is verified, and a forged one is
	// rejected: it counts for nothing.
	h.vote(2, msgPrepare, 0, 1, d, false)
	h.vote(3, msgPrepare, 0, 1, d, true)
	if prepares() != 2 || s.sentCommit {
		t.Fatalf("after a forged prepare: %d prepares, sentCommit=%v; want 2 (own + node 2), false", prepares(), s.sentCommit)
	}
	if h.verified != 2 || h.unverified() != 0 {
		t.Fatalf("verified %d, unverified %d before quorum; want 2, 0", h.verified, h.unverified())
	}
	h.vote(0, msgPrepare, 0, 1, d, false)
	if prepares() != 3 || !s.sentCommit {
		t.Fatalf("prepare quorum not reached: %d prepares", prepares())
	}
	// A late prepare — commit already sent, same view and digest — is
	// dropped unverified, forged or not, and changes nothing.
	h.vote(3, msgPrepare, 0, 1, d, true)
	if h.verified != 3 || h.unverified() != 1 || prepares() != 3 {
		t.Fatalf("late forged prepare: verified %d, unverified %d, prepares %d; want 3, 1, 3",
			h.verified, h.unverified(), prepares())
	}

	h.vote(2, msgCommit, 0, 1, d, true)
	if commits() != 1 || s.committed {
		t.Fatalf("after a forged commit: %d commits, committed=%v; want 1 (own), false", commits(), s.committed)
	}
	h.vote(2, msgCommit, 0, 1, d, false)
	h.vote(0, msgCommit, 0, 1, d, false)
	if !s.executed || len(h.decisions()) != 1 {
		t.Fatalf("slot not executed after a valid commit quorum: committed=%v executed=%v", s.committed, s.executed)
	}
	verified := h.verified
	h.vote(3, msgCommit, 0, 1, d, true)
	h.vote(3, msgCommit, 0, 1, d, false)
	if h.verified != verified || h.unverified() != 3 || commits() != 3 || len(h.decisions()) != 0 {
		t.Fatalf("late commits: verified %d (was %d), unverified %d, commits %d; want unchanged, 3, 3",
			h.verified, verified, h.unverified(), commits())
	}
	// A prepare for a different digest or view is never "late": it is
	// verified (and here rejected as forged) like any other.
	h.vote(3, msgPrepare, 1, 1, d, true)
	if h.verified != verified+1 || h.unverified() != 3 {
		t.Fatalf("prepare for another view skipped the check: verified %d, unverified %d", h.verified, h.unverified())
	}
}

func TestFaultFreeRunVerifiesAtMostQuorum(t *testing.T) {
	// Fault-free n=4: each replica checks at most a quorum of signatures
	// per phase per slot, and the cluster-wide checks per block fall
	// below the 27 of verify-everything (3 pre-prepares plus 4x3
	// prepares and 4x3 commits); late votes are counted instead.
	const n, k = 4, 60
	net := network.New()
	keys := crypto.NewKeyring(n)
	o := obs.New()
	nodes := make([]types.NodeID, n)
	for i := range nodes {
		nodes[i] = types.NodeID(i)
	}
	type key struct {
		node int
		typ  string
		seq  uint64
	}
	var mu sync.Mutex
	checks := map[key]int{}
	reps := make([]*Replica, n)
	for i := range reps {
		reps[i] = New(consensus.Config{Self: types.NodeID(i), Nodes: nodes, Net: net, Keys: keys,
			Timeout: 2 * time.Second, Obs: o})
		i := i
		reps[i].onVerify = func(typ string, seq uint64) {
			mu.Lock()
			checks[key{i, typ, seq}]++
			mu.Unlock()
		}
	}
	for _, r := range reps {
		r.Start()
	}
	defer func() {
		for _, r := range reps {
			r.Stop()
		}
	}()
	for i := 0; i < k; i++ {
		v, d := val(i)
		reps[0].Submit(v, d)
	}
	all := make([][]consensus.Decision, n)
	for i, r := range reps {
		all[i] = consensus.WaitDecisions(r.Decisions(), k, 30*time.Second)
		if len(all[i]) != k {
			t.Fatalf("replica %d decided %d/%d", i, len(all[i]), k)
		}
	}
	checkAgreement(t, all)
	for _, r := range reps {
		r.Stop()
	}
	m := o.Reg.Snapshot().Counters
	if vc := m["pbft/view_changes"]; vc != 0 {
		t.Fatalf("%d view changes in a fault-free run", vc)
	}
	quorum := reps[0].cfg.ByzQuorum()
	total := 0
	for kk, c := range checks {
		total += c
		if c > quorum {
			t.Errorf("replica %d verified %d %s votes for slot %d, more than the quorum %d", kk.node, c, kk.typ, kk.seq, quorum)
		}
	}
	perBlock := float64(total+(n-1)*k) / k // plus each backup's pre-prepare check
	skipped := m["pbft/votes_unverified"]
	t.Logf("signature checks per block %.1f (verify-everything: 27); %d late votes unverified", perBlock, skipped)
	// The primary sees its pre-prepare first, so its third prepare is
	// always late: at least one skip per slot.
	if skipped < k || perBlock > 26 {
		t.Fatalf("%d votes unverified over %d slots, %.1f checks per block; want >= %d and <= 26", skipped, k, perBlock, k)
	}
}

func TestExecutedDigestsBoundedAndReproposalExecutesOnce(t *testing.T) {
	// Drive one backup through several checkpoint windows: the executed
	// digest map is reclaimed with the slots at every stable checkpoint.
	// Then a view change re-proposes the newest executed digest at a
	// fresh slot; the slot executes (it fills the sequence) but the
	// digest is not delivered a second time.
	h := newHarness(t, 2)
	const windows = 4
	var last types.Hash
	for seq := uint64(1); seq <= windows*checkpointEvery; seq++ {
		d := h.prePrepare(0, 0, seq, fmt.Sprintf("req-%d", seq))
		for _, from := range []types.NodeID{0, 1} {
			h.vote(from, msgPrepare, 0, seq, d, false)
		}
		for _, from := range []types.NodeID{0, 1} {
			h.vote(from, msgCommit, 0, seq, d, false)
		}
		if h.r.lastExec != seq {
			t.Fatalf("slot %d did not execute (lastExec %d)", seq, h.r.lastExec)
		}
		last = d
		if seq%checkpointEvery == 0 {
			for _, from := range []types.NodeID{0, 1} {
				hist := h.r.histDigest
				h.deliver(from, msgCheckpoint, checkpoint{Seq: seq, Hist: hist,
					Sig: h.peers[from].SignPart([]byte(msgCheckpoint), consensus.U64(seq), hist[:])})
			}
			if h.r.stableSeq != seq {
				t.Fatalf("checkpoint %d not stable", seq)
			}
			if got := len(h.r.executedDig); got > 2*checkpointEvery {
				t.Fatalf("after checkpoint %d: %d executed digests retained, want <= %d", seq, got, 2*checkpointEvery)
			}
		}
	}
	if got := len(h.decisions()); got != windows*checkpointEvery {
		t.Fatalf("delivered %d decisions, want %d", got, windows*checkpointEvery)
	}
	if got, want := len(h.r.executedDig), checkpointEvery; got != want {
		t.Fatalf("%d executed digests retained after %d windows, want the last window's %d", got, windows, want)
	}

	// View 1 (primary: node 1) re-proposes the newest digest at the next
	// slot, as a prepared certificate carried through the view change.
	next := uint64(windows*checkpointEvery + 1)
	v1 := newView{NewView: 1, MaxSeq: next,
		Certs: []preparedCert{{Seq: next, Digest: last, Value: fmt.Sprintf("req-%d", next-1)}}}
	v1.Sig = h.peers[1].SignPart([]byte(msgNewView), consensus.U64(1))
	h.deliver(1, msgNewView, v1)
	if h.r.view != 1 {
		t.Fatalf("new view not entered: view %d", h.r.view)
	}
	d := h.prePrepare(1, 1, next, fmt.Sprintf("req-%d", next-1))
	if d != last {
		t.Fatal("re-proposal digest mismatch")
	}
	for _, from := range []types.NodeID{0, 1} {
		h.vote(from, msgPrepare, 1, next, d, false)
	}
	for _, from := range []types.NodeID{0, 1} {
		h.vote(from, msgCommit, 1, next, d, false)
	}
	if h.r.lastExec != next {
		t.Fatalf("re-proposed slot did not execute: lastExec %d, want %d", h.r.lastExec, next)
	}
	if ds := h.decisions(); len(ds) != 0 {
		t.Fatalf("re-proposed digest delivered again: %v", ds)
	}
}

// TestNewViewPrePrepareResetsSentCommit covers a slot that prepared in
// one view and is proposed afresh in the next without the new-view
// message covering it (its seq is above the new view's MaxSeq). The
// replica must prepare and commit it in the new view: the old view's
// sentCommit must neither suppress the new commit nor make the new
// view's prepares look late to verifyVote.
func TestNewViewPrePrepareResetsSentCommit(t *testing.T) {
	h := newHarness(t, 2) // a backup in views 0 and 1
	d0 := h.prePrepare(0, 0, 1, "v0")
	h.vote(0, msgPrepare, 0, 1, d0, false)
	h.vote(1, msgPrepare, 0, 1, d0, false)
	s := h.r.slots[1]
	if !s.sentCommit || s.committed {
		t.Fatalf("view 0: sentCommit=%v committed=%v; want true, false", s.sentCommit, s.committed)
	}
	// The view change completed without covering seq 1.
	h.r.view = 1
	d1 := h.prePrepare(1, 1, 1, "v1")
	h.vote(1, msgPrepare, 1, 1, d1, false)
	h.vote(3, msgPrepare, 1, 1, d1, false)
	if got := s.prepares.Count(viewKey(1), d1); got != 3 {
		t.Fatalf("view 1 prepares = %d, want 3 (own + nodes 1, 3); unverified %d", got, h.unverified())
	}
	if got := s.commits.Count(viewKey(1), d1); got != 1 {
		t.Fatalf("view 1: own commit not cast (commits = %d)", got)
	}
	h.vote(1, msgCommit, 1, 1, d1, false)
	h.vote(3, msgCommit, 1, 1, d1, false)
	ds := h.decisions()
	if len(ds) != 1 || ds[0].Digest != d1 {
		t.Fatalf("decisions = %v, want one for the view 1 digest", ds)
	}
}
