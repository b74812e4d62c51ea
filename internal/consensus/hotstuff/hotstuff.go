// Package hotstuff implements chained HotStuff (Yin et al., PODC'19), the
// linear-communication BFT protocol the tutorial lists among the modern
// ordering options (§2.3.3). Replicas vote to the *next* leader instead
// of all-to-all, so each view costs O(n) messages; a block commits when it
// heads a three-chain of quorum certificates over consecutive views.
// Only a view change costs more: a replica that times out announces its
// new view to every replica, so views that drifted apart re-align.
//
// Liveness caveat, inherent to chained HotStuff with round-robin
// rotation: committing requires four consecutive leader slots to be
// correct (the proposer and the three leaders that collect the chain's
// QCs). A permanently silent replica in an n=4 cluster occupies every
// fourth slot, so nothing commits; n >= 5 restores liveness. Production
// systems use leader reputation to exclude such replicas instead.
package hotstuff

import (
	"cmp"
	"slices"
	"sync"

	"permchain/internal/consensus"
	"permchain/internal/network"
	"permchain/internal/obs"
	"permchain/internal/quorumcert"
	"permchain/internal/types"
)

const (
	msgProposal   = "hs/proposal"
	msgVote       = "hs/vote"
	msgNewView    = "hs/newview"
	msgRequest    = "hs/request"
	msgFetch      = "hs/fetch"
	msgFetchReply = "hs/fetchreply"
)

type request struct {
	Digest types.Hash
	Value  any
}

// qc is a quorum certificate: 2f+1 replica votes on one block at one view.
// In counted mode it carries one signature per signer; in aggregate mode
// (consensus.Config.AggregateVotes) Agg holds a constant-size Schnorr
// certificate instead and Signers/Sigs stay empty.
type qc struct {
	View    uint64
	Block   types.Hash
	Signers []types.NodeID
	Sigs    [][]byte
	Agg     *quorumcert.QuorumCert
}

// block is one node in the HotStuff block tree.
type block struct {
	View    uint64
	Parent  types.Hash
	Justify qc
	Reqs    []request
}

func (b *block) hash() types.Hash {
	parts := [][]byte{consensus.U64(b.View), b.Parent[:], b.Justify.Block[:], consensus.U64(b.Justify.View)}
	for _, r := range b.Reqs {
		r := r
		parts = append(parts, r.Digest[:])
	}
	return types.HashConcat(parts...)
}

type proposalMsg struct {
	Block block
	Sig   []byte
}

type voteMsg struct {
	View  uint64
	Block types.Hash
	Sig   []byte
	// Part replaces Sig in aggregate mode: the Schnorr signature share the
	// next leader folds into a QuorumCert.
	Part quorumcert.Partial
}

type newViewMsg struct {
	View   uint64
	HighQC qc
}

// fetchMsg asks peers for a block by hash: a restarted or long-partitioned
// replica rebuilds the ancestor path of the current branch this way so it
// can re-execute from genesis.
type fetchMsg struct {
	Block types.Hash
}

// fetchReply carries the requested block. Blocks are content-addressed, so
// a reply is self-certifying: it is stored under the hash of what was
// actually received, and a forged body simply lands under a hash nobody
// references.
type fetchReply struct {
	Block block
}

// Replica is one HotStuff node.
type Replica struct {
	cfg consensus.Config
	ep  *network.Endpoint

	decCh    chan consensus.Decision
	submitCh chan request
	stopCh   chan struct{}
	stopOnce sync.Once
	done     chan struct{}

	// Event-loop state.
	curView   uint64
	votedView uint64
	// readyView is the highest view this replica holds a justification
	// to lead (the QC of the view before it, or a new-view quorum for
	// it); proposedView is the last view it proposed in, so an honest
	// leader never proposes twice in one view.
	readyView    uint64
	proposedView uint64
	blocks       map[types.Hash]*block
	genesis      types.Hash
	highQC       qc
	lockedQC     qc
	lastExec     types.Hash
	execSeq      uint64
	votes        map[types.Hash]map[types.NodeID][]byte // block → votes (as next leader)
	newViews     map[uint64]map[types.NodeID]qc
	peerViews    map[types.NodeID]uint64 // highest view each peer announced in a new-view
	pending      []request               // received and not yet executed, FIFO
	pendSet      map[types.Hash]bool
	committed    map[types.Hash]bool // request digests already executed
	fetching     map[types.Hash]bool // ancestor fetches in flight
	// stalled holds accepted proposals whose chain rules stopped at a
	// block this replica does not have yet; every fetched link re-runs
	// them, since proposals arriving out of order may each be the one
	// that closes a three-chain.
	stalled map[types.Hash]bool
	timer   *consensus.LoopTimer

	// Aggregate-vote mode (cfg.AggregateVotes): voteKeys is the cluster's
	// Schnorr key set (nil under DisableSig — certs carry bitmaps only),
	// aggs holds this replica's in-progress aggregations as next leader,
	// and batcher (cfg.BatchVotes) coalesces outbound votes per peer.
	aggMode  bool
	voteKeys *quorumcert.Keys
	aggs     map[types.Hash]*quorumcert.Aggregator
	batcher  *network.VoteBatcher
}

// New creates a HotStuff replica. Call Start to launch it.
func New(cfg consensus.Config) *Replica {
	cfg = cfg.Defaulted()
	g := &block{View: 0}
	r := &Replica{
		cfg:       cfg,
		ep:        cfg.Net.Join(cfg.Self),
		decCh:     make(chan consensus.Decision, 65536),
		submitCh:  make(chan request, 65536),
		stopCh:    make(chan struct{}),
		done:      make(chan struct{}),
		curView:   1,
		readyView: 1, // the genesis QC justifies view 1
		blocks:    map[types.Hash]*block{},
		votes:     map[types.Hash]map[types.NodeID][]byte{},
		newViews:  map[uint64]map[types.NodeID]qc{},
		peerViews: map[types.NodeID]uint64{},
		pendSet:   map[types.Hash]bool{},
		committed: map[types.Hash]bool{},
		fetching:  map[types.Hash]bool{},
		stalled:   map[types.Hash]bool{},
		timer:     consensus.NewLoopTimer(),
	}
	gh := g.hash()
	r.genesis = gh
	r.blocks[gh] = g
	r.highQC = qc{View: 0, Block: gh}
	r.lockedQC = r.highQC
	r.lastExec = gh
	if cfg.AggregateVotes {
		r.aggMode = true
		r.voteKeys = cfg.VoteKeySet()
		r.aggs = map[types.Hash]*quorumcert.Aggregator{}
	}
	if cfg.BatchVotes {
		r.batcher = network.NewVoteBatcher(r.ep, network.VoteBatcherConfig{Obs: cfg.Obs})
	}
	return r
}

// voteStatement is what an aggregate-mode vote signs: the vote phase plus
// the (view, block-hash) coordinates. HotStuff has no per-slot sequence
// dimension, so Seq stays zero.
func (r *Replica) voteStatement(view uint64, bh types.Hash) quorumcert.Statement {
	return quorumcert.Statement{Domain: msgVote, View: view, Digest: bh}
}

// ID implements consensus.Replica.
func (r *Replica) ID() types.NodeID { return r.cfg.Self }

// Decisions implements consensus.Replica.
func (r *Replica) Decisions() <-chan consensus.Decision { return r.decCh }

// Start implements consensus.Replica.
func (r *Replica) Start() { go r.loop() }

// Stop implements consensus.Replica.
func (r *Replica) Stop() {
	r.stopOnce.Do(func() { close(r.stopCh) })
	<-r.done
}

// Submit implements consensus.Replica.
func (r *Replica) Submit(value any, digest types.Hash) {
	r.cfg.Obs.Mark(digest, 0, obs.PhaseSubmit)
	select {
	case r.submitCh <- request{Digest: digest, Value: value}:
	case <-r.stopCh:
	}
}

func (r *Replica) leader(view uint64) types.NodeID {
	return r.cfg.Nodes[int(view%uint64(len(r.cfg.Nodes)))]
}

func (r *Replica) loop() {
	defer close(r.done)
	defer r.timer.Stop()
	if r.batcher != nil {
		defer r.batcher.Stop()
	}
	for {
		select {
		case <-r.stopCh:
			return
		case req := <-r.submitCh:
			r.onSubmit(req)
		case m := <-r.ep.Inbox():
			r.onMessage(m)
		case <-r.timer.C():
			r.onTimeout()
		}
	}
}

func (r *Replica) onSubmit(req request) {
	r.ep.Multicast(r.cfg.Nodes, msgRequest, req)
	r.onRequest(req)
}

func (r *Replica) onRequest(req request) {
	if r.committed[req.Digest] || r.pendSet[req.Digest] {
		return
	}
	r.pendSet[req.Digest] = true
	r.pending = append(r.pending, req)
	r.timer.Reset(r.cfg.Timeout)
	if r.readyView == r.curView {
		r.propose(r.curView)
	}
}

// branchReqs returns the digests of the requests on the active branch —
// the blocks from highQC down to the last executed one — which the
// chain will commit as it grows. Requests outside it (never proposed,
// or stranded on an abandoned fork) are still to be proposed.
func (r *Replica) branchReqs() map[types.Hash]bool {
	in := map[types.Hash]bool{}
	for cur := r.highQC.Block; cur != r.lastExec; {
		b, ok := r.blocks[cur]
		if !ok {
			break
		}
		for _, req := range b.Reqs {
			in[req.Digest] = true
		}
		cur = b.Parent
	}
	return in
}

// hasWork reports whether the chain must keep advancing: requests await
// execution, or proposed ones are still buried in an unfinished
// three-chain.
func (r *Replica) hasWork() bool {
	return len(r.pending) > 0 || len(r.branchReqs()) > 0
}

// propose creates a block for view extending highQC and broadcasts it.
// Called when this replica holds the justification to lead view (a
// fresh QC for the view before it, or a new-view quorum). A request
// leaves the pending queue only when it executes, so one proposed on a
// fork that the chain abandons is proposed again.
func (r *Replica) propose(view uint64) {
	if view <= r.proposedView || r.leader(view) != r.cfg.Self {
		return
	}
	inBranch := r.branchReqs()
	var reqs []request
	for _, req := range r.pending {
		if !inBranch[req.Digest] {
			reqs = append(reqs, req)
		}
	}
	if len(reqs) == 0 && len(inBranch) == 0 {
		return // nothing to drive; stay quiet
	}
	r.proposedView = view
	if r.curView < view {
		r.curView = view
	}
	b := block{View: view, Parent: r.highQC.Block, Justify: r.highQC, Reqs: reqs}
	bh := b.hash()
	p := proposalMsg{
		Block: b,
		Sig:   r.cfg.SignPart([]byte(msgProposal), consensus.U64(b.View), bh[:]),
	}
	r.ep.Multicast(r.cfg.Nodes, msgProposal, p)
	r.onProposal(r.cfg.Self, p)
}

func (r *Replica) onMessage(m network.Message) {
	if !r.cfg.IsMember(m.From) {
		return // not part of this replica group
	}
	switch m.Type {
	case network.MsgVoteBatch:
		for _, inner := range network.Unbatch(m) {
			r.onMessage(inner)
		}
	case msgRequest:
		req, ok := m.Payload.(request)
		if !ok {
			return
		}
		r.onRequest(req)
	case msgProposal:
		p, ok := m.Payload.(proposalMsg)
		if !ok {
			return
		}
		bh := p.Block.hash()
		if !r.cfg.VerifyPart(m.From, p.Sig, []byte(msgProposal), consensus.U64(p.Block.View), bh[:]) {
			return
		}
		r.onProposal(m.From, p)
	case msgVote:
		v, ok := m.Payload.(voteMsg)
		if !ok {
			return
		}
		// In aggregate mode the Schnorr partial authenticates the vote
		// (checked by the aggregator); counted mode checks the ed25519
		// message signature here.
		if !r.aggMode && !r.cfg.VerifyPart(m.From, v.Sig, []byte(msgVote), consensus.U64(v.View), v.Block[:]) {
			return
		}
		r.onVote(m.From, v)
	case msgNewView:
		nv, ok := m.Payload.(newViewMsg)
		if !ok {
			return
		}
		r.onNewView(m.From, nv)
	case msgFetch:
		f, ok := m.Payload.(fetchMsg)
		if !ok {
			return
		}
		if b, ok := r.blocks[f.Block]; ok {
			r.ep.Send(m.From, msgFetchReply, fetchReply{Block: *b})
		}
	case msgFetchReply:
		fr, ok := m.Payload.(fetchReply)
		if !ok {
			return
		}
		r.onFetchReply(fr)
	}
}

// ensureAncestors walks b's parent chain toward genesis and requests the
// first missing link. Replies re-enter here, so the whole path is restored
// link by link.
func (r *Replica) ensureAncestors(b *block) {
	cur := b.Parent
	for i := 0; i < len(r.blocks)+2; i++ {
		if cur == r.genesis {
			return
		}
		nb, ok := r.blocks[cur]
		if !ok {
			if !r.fetching[cur] {
				r.fetching[cur] = true
				r.cfg.Obs.Inc("hotstuff/fetches")
				r.ep.Multicast(r.cfg.Nodes, msgFetch, fetchMsg{Block: cur})
			}
			return
		}
		cur = nb.Parent
	}
}

func (r *Replica) onFetchReply(fr fetchReply) {
	b := fr.Block
	bh := b.hash()
	// Only accept blocks we asked for: the hash check makes the body
	// authentic (content addressing), the fetching check bounds memory.
	if !r.fetching[bh] {
		return
	}
	delete(r.fetching, bh)
	if _, ok := r.blocks[bh]; !ok {
		cp := b
		r.blocks[bh] = &cp
	}
	r.ensureAncestors(&b)
	// Each recovered link may complete the path below an already-seen
	// three-chain: re-run the commit rules of every stalled proposal,
	// oldest first.
	hs := make([]types.Hash, 0, len(r.stalled))
	for h := range r.stalled {
		hs = append(hs, h)
	}
	slices.SortFunc(hs, func(a, b types.Hash) int { return cmp.Compare(r.blocks[a].View, r.blocks[b].View) })
	for _, h := range hs {
		r.applyChainRules(h)
	}
}

// verifyQC checks a certificate's signatures and quorum size. The genesis
// QC (view 0) is axiomatic. An aggregate certificate verifies in one group
// equation against the bitmap's combined public key; the counted path below
// stays as the fallback (a cluster not running in aggregate mode rejects
// aggregate QCs outright — its quorum evidence is per-signer signatures).
func (r *Replica) verifyQC(c qc) bool {
	if c.View == 0 {
		return c.Block == r.genesis
	}
	if c.Agg != nil {
		if !r.aggMode || c.Agg.Statement != r.voteStatement(c.View, c.Block) {
			return false
		}
		if err := c.Agg.Verify(r.voteKeys, r.cfg.Nodes, r.cfg.ByzQuorum()); err != nil {
			r.cfg.Obs.Inc("quorumcert/cert_verify_failures")
			return false
		}
		r.cfg.Obs.Inc("quorumcert/certs_verified")
		return true
	}
	if len(c.Signers) < r.cfg.ByzQuorum() || len(c.Signers) != len(c.Sigs) {
		return false
	}
	seen := map[types.NodeID]bool{}
	for i, id := range c.Signers {
		if seen[id] {
			return false
		}
		seen[id] = true
		if !r.cfg.VerifyPart(id, c.Sigs[i], []byte(msgVote), consensus.U64(c.View), c.Block[:]) {
			return false
		}
	}
	return true
}

func (r *Replica) updateHighQC(c qc) {
	if c.View > r.highQC.View && r.verifyQC(c) {
		r.highQC = c
	}
}

func (r *Replica) onProposal(from types.NodeID, p proposalMsg) {
	b := p.Block
	if from != r.leader(b.View) {
		return
	}
	if !r.verifyQC(b.Justify) {
		return
	}
	bh := b.hash()
	if _, ok := r.blocks[bh]; !ok {
		cp := b
		r.blocks[bh] = &cp
	}
	for _, req := range b.Reqs {
		r.cfg.Obs.Mark(req.Digest, 0, obs.PhasePropose)
	}
	r.updateHighQC(b.Justify)
	r.ensureAncestors(&b)
	r.applyChainRules(bh)

	// Safety rule: vote once per view, for blocks extending the locked
	// block or justified above the lock.
	if b.View <= r.votedView {
		return
	}
	safe := r.extends(bh, r.lockedQC.Block) || b.Justify.View > r.lockedQC.View
	if !safe {
		return
	}
	r.votedView = b.View
	if b.View >= r.curView {
		r.curView = b.View + 1
	}
	// Voting is progress even for a replica whose timeouts took it past
	// the chain's view: it waits for the chain to catch up instead of
	// timing out again.
	r.timer.Reset(r.cfg.Timeout)
	v := voteMsg{View: b.View, Block: bh}
	if r.aggMode {
		v.Part = r.voteKeys.Sign(r.cfg.Self, r.voteStatement(b.View, bh))
	} else {
		v.Sig = r.cfg.SignPart([]byte(msgVote), consensus.U64(b.View), bh[:])
	}
	next := r.leader(b.View + 1)
	switch {
	case next == r.cfg.Self:
		r.onVote(r.cfg.Self, v)
	case r.batcher != nil:
		r.batcher.Enqueue(next, msgVote, v)
	default:
		r.ep.Send(next, msgVote, v)
	}
}

// extends reports whether anc is on desc's ancestor path.
func (r *Replica) extends(desc, anc types.Hash) bool {
	cur := desc
	for i := 0; i < len(r.blocks)+1; i++ {
		if cur == anc {
			return true
		}
		b, ok := r.blocks[cur]
		if !ok || cur == r.genesis {
			return false
		}
		cur = b.Parent
	}
	return false
}

// applyChainRules walks the justify links of a new block: a one-chain
// updates highQC (done by caller), a two-chain locks, a three-chain over
// consecutive views commits. A walk that stops at a missing block marks
// the proposal stalled until the block is fetched.
func (r *Replica) applyChainRules(bh types.Hash) {
	b := r.blocks[bh]
	delete(r.stalled, bh)
	b1, ok := r.blocks[b.Justify.Block]
	if !ok {
		r.stall(bh, b.Justify.Block)
		return
	}
	b2, ok := r.blocks[b1.Justify.Block]
	if !ok {
		r.stall(bh, b1.Justify.Block)
		return
	}
	// Two-chain: lock b2.
	if b1.Justify.View > r.lockedQC.View {
		r.lockedQC = b1.Justify
		for _, req := range b2.Reqs {
			r.cfg.Obs.Mark(req.Digest, 0, obs.PhasePreCommit)
		}
	}
	b3, ok := r.blocks[b2.Justify.Block]
	if !ok {
		r.stall(bh, b2.Justify.Block)
		return
	}
	// Three-chain over consecutive views commits b3.
	if b1.View == b2.View+1 && b2.View == b3.View+1 && !r.execute(b2.Justify.Block) {
		r.stalled[bh] = true
	}
}

// stall marks proposal bh as waiting for block missing. The genesis
// block's empty justify link is the end of every walk, not a gap.
func (r *Replica) stall(bh, missing types.Hash) {
	if missing != (types.Hash{}) {
		r.stalled[bh] = true
	}
}

// execute commits every block from lastExec (exclusive) up to target. It
// reports false when a block on that path has not arrived yet; a target
// that does not extend lastExec is a no-op.
func (r *Replica) execute(target types.Hash) bool {
	// Collect path target → lastExec, then execute in reverse. Views
	// strictly grow along parent links, so the walk ends at lastExec's
	// view at the latest.
	execView := r.blocks[r.lastExec].View
	var path []*block
	for cur := target; cur != r.lastExec; {
		b, ok := r.blocks[cur]
		if !ok {
			return false
		}
		if b.View <= execView {
			return true // already executed, or off the executed branch
		}
		path = append(path, b)
		cur = b.Parent
	}
	for i := len(path) - 1; i >= 0; i-- {
		for _, req := range path[i].Reqs {
			if r.committed[req.Digest] {
				continue
			}
			r.committed[req.Digest] = true
			delete(r.pendSet, req.Digest)
			r.execSeq++
			r.cfg.Obs.MarkLatency("hotstuff/commit_latency", req.Digest, r.execSeq, obs.PhasePropose, obs.PhaseCommit)
			r.cfg.Obs.Mark(req.Digest, r.execSeq, obs.PhaseApply)
			r.cfg.Obs.Inc("hotstuff/decisions")
			r.decCh <- consensus.Decision{Seq: r.execSeq, Digest: req.Digest, Value: req.Value, Node: r.cfg.Self}
		}
	}
	r.lastExec = target
	for h := range r.stalled {
		if r.blocks[h].View <= r.blocks[target].View {
			delete(r.stalled, h)
		}
	}
	rest := r.pending[:0]
	for _, req := range r.pending {
		if !r.committed[req.Digest] {
			rest = append(rest, req)
		}
	}
	clear(r.pending[len(rest):])
	r.pending = rest
	if !r.hasWork() {
		r.timer.Stop()
	}
	return true
}

func (r *Replica) onVote(from types.NodeID, v voteMsg) {
	// Collected by the leader of view v.View+1.
	if r.leader(v.View+1) != r.cfg.Self {
		return
	}
	if r.aggMode {
		r.onVoteAggregate(from, v)
		return
	}
	m, ok := r.votes[v.Block]
	if !ok {
		m = map[types.NodeID][]byte{}
		r.votes[v.Block] = m
	}
	if _, dup := m[from]; dup {
		return
	}
	m[from] = v.Sig
	if len(m) != r.cfg.ByzQuorum() {
		return
	}
	// Fresh QC: adopt and propose the next block in the chain.
	c := qc{View: v.View, Block: v.Block}
	for id, sig := range m {
		c.Signers = append(c.Signers, id)
		c.Sigs = append(c.Sigs, sig)
	}
	r.updateHighQC(c)
	r.lead(v.View + 1)
}

// lead records that this replica holds the justification to lead view
// (the QC of the view before it, or a new-view quorum for it) and
// proposes there. A replica whose timeouts took it past view still
// proposes in it: the chain's next link is view, and replicas that have
// not voted beyond it vote for the block.
func (r *Replica) lead(view uint64) {
	if r.readyView < view {
		r.readyView = view
	}
	if r.curView < view {
		r.curView = view
	}
	r.propose(view)
}

// onVoteAggregate folds one vote's signature share into the per-block
// aggregator and, at exactly the quorum threshold, broadcasts the next
// proposal justified by the resulting constant-size certificate.
func (r *Replica) onVoteAggregate(from types.NodeID, v voteMsg) {
	if v.Part.Signer != from {
		return // a replica may only contribute its own share
	}
	agg := r.aggs[v.Block]
	if agg == nil || agg.Statement().View != v.View {
		agg = quorumcert.NewAggregator(r.voteKeys, r.cfg.Nodes, r.cfg.ByzQuorum(),
			r.voteStatement(v.View, v.Block))
		r.aggs[v.Block] = agg
	}
	n, err := agg.Add(v.Part)
	if err != nil {
		r.cfg.Obs.Inc("quorumcert/partials_rejected")
		return
	}
	r.cfg.Obs.Inc("quorumcert/partials")
	if n != r.cfg.ByzQuorum() {
		return
	}
	cert, err := agg.Cert()
	if err != nil {
		return
	}
	r.cfg.Obs.Inc("quorumcert/certs_built")
	r.updateHighQC(qc{View: v.View, Block: v.Block, Agg: cert})
	r.lead(v.View + 1)
}

// onNewView handles a peer's view announcement. New-views go to every
// replica, not only the view's leader, so replicas whose timeouts drifted
// apart re-synchronize: once f+1 peers (at least one of them correct)
// announce views above this replica's, it jumps to the highest view that
// f+1 of them have reached and announces it in turn. Without the jump,
// replicas stuck one view apart send their new-views to different
// leaders forever and no leader ever gathers a quorum.
func (r *Replica) onNewView(from types.NodeID, nv newViewMsg) {
	r.updateHighQC(nv.HighQC)
	if from != r.cfg.Self && nv.View > r.peerViews[from] {
		r.peerViews[from] = nv.View
		r.syncView()
	}
	if r.leader(nv.View) != r.cfg.Self || nv.View <= r.proposedView {
		return
	}
	m, ok := r.newViews[nv.View]
	if !ok {
		m = map[types.NodeID]qc{}
		r.newViews[nv.View] = m
	}
	m[from] = nv.HighQC
	if len(m) != r.cfg.ByzQuorum() {
		return
	}
	for v := range r.newViews {
		if v <= nv.View {
			delete(r.newViews, v)
		}
	}
	r.lead(nv.View)
}

// syncView applies the f+1 jump rule over the peers' announced views.
func (r *Replica) syncView() {
	views := make([]uint64, 0, len(r.peerViews))
	for _, v := range r.peerViews {
		if v > r.curView {
			views = append(views, v)
		}
	}
	f1 := r.cfg.MaxByzFaults() + 1
	if len(views) < f1 {
		return
	}
	slices.Sort(views)
	r.enterView(views[len(views)-f1])
}

func (r *Replica) onTimeout() {
	// A timeout means in-flight messages may be lost. Ancestor fetches
	// are asked again for every stalled proposal; requests on an
	// abandoned fork are proposed again by the next leader, since only
	// execution removes them from the pending queue.
	r.fetching = map[types.Hash]bool{}
	for h := range r.stalled {
		r.ensureAncestors(r.blocks[h])
	}
	if !r.hasWork() {
		return
	}
	r.enterView(r.curView + 1)
}

// enterView moves this replica to view without a proposal for it (a
// timeout or a view jump) and announces the move with its highQC.
func (r *Replica) enterView(view uint64) {
	r.curView = view
	r.cfg.Obs.Inc("hotstuff/new_views")
	r.cfg.Obs.SetGauge("hotstuff/view", int64(r.curView))
	r.cfg.Obs.NoteViewChange()
	r.cfg.Obs.Logger("hotstuff").Warn("new view",
		"node", int(r.cfg.Self), "view", r.curView)
	r.timer.Reset(r.cfg.Timeout)
	nv := newViewMsg{View: r.curView, HighQC: r.highQC}
	r.ep.Multicast(r.cfg.Nodes, msgNewView, nv)
	r.onNewView(r.cfg.Self, nv)
}
