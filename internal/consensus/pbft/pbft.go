// Package pbft implements Practical Byzantine Fault Tolerance (Castro &
// Liskov, OSDI'99), the canonical ordering protocol of permissioned
// blockchains (§2.2, §2.3.3). n = 3f+1 replicas run the three normal-case
// phases — pre-prepare, prepare, commit, each quorum 2f+1 — and a view
// change that replaces a faulty primary while preserving every decision
// that may have committed anywhere.
//
// Each replica is a single event-loop goroutine; all protocol state is
// confined to that goroutine, so there are no locks in the hot path.
package pbft

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"permchain/internal/consensus"
	"permchain/internal/network"
	"permchain/internal/obs"
	"permchain/internal/quorumcert"
	"permchain/internal/types"
)

// Message type tags on the wire.
const (
	msgRequest    = "pbft/request"
	msgPrePrepare = "pbft/preprepare"
	msgPrepare    = "pbft/prepare"
	msgCommit     = "pbft/commit"
	msgViewChange = "pbft/viewchange"
	msgNewView    = "pbft/newview"
	msgFetch      = "pbft/fetch"
	msgFetchReply = "pbft/fetchreply"
	msgCheckpoint = "pbft/checkpoint"
	msgStatus     = "pbft/status"

	// Aggregate-vote mode (consensus.Config.AggregateVotes): replicas send
	// Schnorr signature shares to the primary instead of multicasting
	// prepare/commit votes, and the primary relays one constant-size
	// certificate per phase — ~5n messages per slot instead of ~2n².
	msgPrepPartial = "pbft/preppartial"
	msgCommPartial = "pbft/commitpartial"
	msgPrepCert    = "pbft/prepcert"
	msgCommCert    = "pbft/commitcert"
)

// checkpointEvery is how many executed slots between checkpoints; a
// quorum of matching checkpoints makes a sequence number stable and lets
// replicas garbage-collect everything at or below it.
const checkpointEvery = 128

// healthyViewExecs is how many slots a view must execute before the
// view-change timeout ladder decays one step: enough that churn-zone
// views (which execute at most a handful of slots before timing out)
// never shorten their deadline, small enough that one productive view
// walks the timeout back toward the configured base.
const healthyViewExecs = checkpointEvery / 2

type request struct {
	Digest types.Hash
	Value  any
}

type prePrepare struct {
	View   uint64
	Seq    uint64
	Digest types.Hash
	Value  any
	Sig    []byte
}

type vote struct { // prepare or commit
	View   uint64
	Seq    uint64
	Digest types.Hash
	Sig    []byte
}

// partialMsg carries one replica's Schnorr signature share on a phase
// statement to the primary (aggregate mode). The share itself authenticates
// the message: a garbled or transplanted partial fails aggregator
// verification.
type partialMsg struct {
	View   uint64
	Seq    uint64
	Digest types.Hash
	Part   quorumcert.Partial
}

// certMsg is the primary's broadcast of an aggregated phase certificate.
// It carries no value: a replica that missed the pre-prepare adopts the
// digest and recovers the value over the existing fetch path.
type certMsg struct {
	View   uint64
	Seq    uint64
	Digest types.Hash
	Cert   quorumcert.QuorumCert
}

// preparedCert certifies that a (seq, digest, value) gathered a prepare
// quorum in some view and must survive into the next one.
type preparedCert struct {
	Seq    uint64
	Digest types.Hash
	Value  any
}

type viewChange struct {
	NewView  uint64
	Prepared []preparedCert
	Sig      []byte
}

type newView struct {
	NewView uint64
	Certs   []preparedCert
	MaxSeq  uint64
	Sig     []byte
}

// fetch asks peers for the value of a slot the requester learned is
// committed (via a commit quorum) but whose pre-prepare it missed.
type fetch struct {
	Seq uint64
}

type fetchReply struct {
	Seq    uint64
	Digest types.Hash
	Value  any
}

// status is low-rate gossip of execution progress: a replica that was
// partitioned away (and so missed both requests and commits) learns it is
// behind and starts fetching. Without it, a fully-isolated replica would
// sleep forever after the partition heals.
type status struct {
	LastExec uint64
	Sig      []byte
}

// checkpoint announces that the sender executed through Seq with the
// given cumulative history digest; 2f+1 matching checkpoints prove the
// prefix is globally decided and reclaimable.
type checkpoint struct {
	Seq  uint64
	Hist types.Hash
	Sig  []byte
}

// slot is the per-sequence-number state. Counted-mode prepare/commit votes
// go through QuorumTracker keyed by view, which pins each voter to its
// first digest per view — an equivocating replica cannot count toward two
// conflicting quorums at the same (view, seq).
type slot struct {
	digest     types.Hash
	value      any
	hasPP      bool
	ppView     uint64
	prepares   *consensus.QuorumTracker
	commits    *consensus.QuorumTracker
	sentCommit bool
	committed  bool
	executed   bool

	// Aggregate-vote mode state. prepAgg/commAgg collect shares on the
	// primary; sentPrepCert/sentCommCert make each cert broadcast one-shot;
	// prepared marks a verified prepare certificate on a replica (it feeds
	// the view-change prepared-certificate collection, exactly like a
	// counted prepare quorum).
	prepAgg      *quorumcert.Aggregator
	commAgg      *quorumcert.Aggregator
	sentPrepCert bool
	sentCommCert bool
	prepared     bool
}

func newSlot() *slot {
	return &slot{
		prepares: consensus.NewQuorumTracker(),
		commits:  consensus.NewQuorumTracker(),
	}
}

// viewKey keys QuorumTracker state by view; the tracker separates digests
// itself (and rejects per-voter equivocation across them).
func viewKey(view uint64) string { return strconv.FormatUint(view, 10) }

// resetAggPhase clears per-view aggregate-vote state when a slot is re-run
// in a new view; the statement's view changes, so stale shares and
// certificates cannot satisfy the new view's phases.
func (s *slot) resetAggPhase() {
	s.prepAgg, s.commAgg = nil, nil
	s.sentPrepCert, s.sentCommCert = false, false
	s.prepared = false
}

// Replica is one PBFT node.
type Replica struct {
	cfg consensus.Config
	ep  *network.Endpoint

	decCh    chan consensus.Decision
	submitCh chan request
	stopCh   chan struct{}
	stopOnce sync.Once
	done     chan struct{}

	// slotGauge mirrors len(slots) after every event so tests and
	// monitoring can watch retention (checkpoint GC) on a live replica
	// without racing the event loop.
	slotGauge atomic.Int64

	// Everything below is owned by the event loop.
	view         uint64
	inViewChange bool
	nextSeq      uint64 // primary only: next sequence to assign
	lastExec     uint64
	slots        map[uint64]*slot
	proposed     map[types.Hash]bool // primary: digests already assigned a seq
	pending      map[types.Hash]any  // known outstanding requests, not yet executed
	vcVotes      map[uint64]map[types.NodeID]*viewChange
	lastVC       *viewChange                            // our current view-change vote, for retransmission
	vcResent     bool                                   // whether lastVC was already retransmitted this view
	executedDig  map[types.Hash]uint64                  // digest → slot it executed at, reclaimed with slots
	fetchVotes   map[uint64]map[types.NodeID]fetchReply // gap-recovery replies
	fetchTried   bool                                   // alternate gap-fetch with view change
	histDigest   types.Hash                             // cumulative digest of executed history
	ckptVotes    map[uint64]map[types.NodeID]types.Hash // checkpoint votes
	knownExec    uint64                                 // highest peer execution point from status gossip
	stableSeq    uint64                                 // highest quorum-stable checkpoint
	lastNV       uint64                                 // view of the last accepted NewView
	storedNV     *newView                               // for retransmission to stragglers
	vcBackoff    uint                                   // timeout-doubling ladder; decays as views prove healthy
	execsInView  uint64                                 // executions since the last backoff decay; gates the decay
	timer        *consensus.LoopTimer

	// Aggregate-vote mode (cfg.AggregateVotes): voteKeys is the cluster's
	// Schnorr key set (nil under DisableSig — certificates degrade to
	// counted bitmaps); batcher (cfg.BatchVotes) coalesces outbound votes
	// and shares per destination.
	aggMode  bool
	voteKeys *quorumcert.Keys
	batcher  *network.VoteBatcher

	// onVerify, when non-nil, observes every vote signature check
	// (tests count verifications per slot and phase). Set before Start.
	onVerify func(typ string, seq uint64)
}

// New creates a PBFT replica. Call Start to launch it.
func New(cfg consensus.Config) *Replica {
	cfg = cfg.Defaulted()
	r := &Replica{
		cfg:         cfg,
		ep:          cfg.Net.Join(cfg.Self),
		decCh:       make(chan consensus.Decision, 65536),
		submitCh:    make(chan request, 65536),
		stopCh:      make(chan struct{}),
		done:        make(chan struct{}),
		nextSeq:     1,
		slots:       map[uint64]*slot{},
		proposed:    map[types.Hash]bool{},
		pending:     map[types.Hash]any{},
		vcVotes:     map[uint64]map[types.NodeID]*viewChange{},
		executedDig: map[types.Hash]uint64{},
		fetchVotes:  map[uint64]map[types.NodeID]fetchReply{},
		ckptVotes:   map[uint64]map[types.NodeID]types.Hash{},
		timer:       consensus.NewLoopTimer(),
	}
	if cfg.AggregateVotes {
		r.aggMode = true
		r.voteKeys = cfg.VoteKeySet()
	}
	if cfg.BatchVotes {
		r.batcher = network.NewVoteBatcher(r.ep, network.VoteBatcherConfig{Obs: cfg.Obs})
	}
	return r
}

// prepStatement / commStatement are what aggregate-mode shares sign: the
// phase domain plus the (view, seq, digest) coordinates.
func prepStatement(view, seq uint64, d types.Hash) quorumcert.Statement {
	return quorumcert.Statement{Domain: msgPrepare, View: view, Seq: seq, Digest: d}
}

func commStatement(view, seq uint64, d types.Hash) quorumcert.Statement {
	return quorumcert.Statement{Domain: msgCommit, View: view, Seq: seq, Digest: d}
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

func (r *Replica) primary(view uint64) types.NodeID {
	return r.cfg.Nodes[int(view%uint64(len(r.cfg.Nodes)))]
}

func (r *Replica) isPrimary() bool { return r.primary(r.view) == r.cfg.Self }

func (r *Replica) loop() {
	defer close(r.done)
	defer r.timer.Stop()
	if r.batcher != nil {
		defer r.batcher.Stop()
	}
	defer func() { r.slotGauge.Store(int64(len(r.slots))) }()
	gossip := time.NewTicker(r.cfg.Timeout * 4)
	defer gossip.Stop()
	for {
		r.slotGauge.Store(int64(len(r.slots)))
		select {
		case <-r.stopCh:
			return
		case req := <-r.submitCh:
			r.onSubmit(req)
		case m := <-r.ep.Inbox():
			r.onMessage(m)
		case <-r.timer.C():
			r.onTimeout()
		case <-gossip.C:
			if r.lastExec > 0 {
				st := status{
					LastExec: r.lastExec,
					Sig:      r.cfg.SignPart([]byte(msgStatus), consensus.U64(r.lastExec)),
				}
				r.ep.Multicast(r.cfg.Nodes, msgStatus, st)
			}
		}
	}
}

func (r *Replica) onSubmit(req request) {
	// Requests are broadcast so every correct replica learns of the
	// outstanding work and arms its failure-detection timer — otherwise a
	// dead primary would only ever be suspected by the submitting
	// replica, and a view-change quorum could never form.
	r.ep.Multicast(r.cfg.Nodes, msgRequest, req)
	r.onRequest(req)
}

// onRequest registers an outstanding request and, on the primary,
// proposes it.
func (r *Replica) onRequest(req request) {
	if r.isExecuted(req.Digest) {
		return
	}
	r.pending[req.Digest] = req.Value
	// Start the failure-detection timer only if it is not already running
	// (Castro & Liskov: a backup starts its timer when a request arrives
	// and the timer is not running; only execution progress restarts it).
	// A full Reset here would let a steady client stream push the deadline
	// out forever — under continuous load no replica would ever suspect a
	// faulty primary and view changes would starve.
	r.ensureTimer()
	if r.isPrimary() && !r.inViewChange {
		r.propose(req.Digest, req.Value)
	}
}

// isExecuted reports whether a request digest already executed, bounding
// re-broadcast loops after view changes.
func (r *Replica) isExecuted(d types.Hash) bool {
	_, ok := r.executedDig[d]
	return ok
}

// onCheckpoint collects checkpoint votes; a 2f+1 matching quorum at or
// below our own execution point makes that prefix stable and
// garbage-collectable. Slots within one checkpoint window above the
// stable point are retained so laggards can still fetch them.
func (r *Replica) onCheckpoint(from types.NodeID, ck checkpoint) {
	m, ok := r.ckptVotes[ck.Seq]
	if !ok {
		m = map[types.NodeID]types.Hash{}
		r.ckptVotes[ck.Seq] = m
	}
	m[from] = ck.Hist
	// Count the strongest quorum across all recorded histories, not just
	// the arriving vote's. A replica whose own history bookkeeping drifted
	// (diverging null-slot/re-proposal layouts across view changes) would
	// otherwise sit on a full 2f+1 peer quorum forever: its own boundary
	// vote — the last arrival while it lags — only ever counts itself.
	best := ck.Hist
	count := 0
	for _, h := range m {
		c := 0
		for _, h2 := range m {
			if h2 == h {
				c++
			}
		}
		if c > count {
			best, count = h, c
		}
	}
	if count < r.cfg.ByzQuorum() || ck.Seq <= r.stableSeq || ck.Seq > r.lastExec {
		return
	}
	r.cfg.Obs.Logger("pbft").Debug("checkpoint stable",
		"node", int(r.cfg.Self), "seq", ck.Seq, "last_exec", r.lastExec)
	// Adopt the quorum's history when stabilizing exactly at our own
	// execution point: 2f+1 replicas proved this prefix digest, so a
	// drifted local mirror is the wrong one, and keeping it would poison
	// every later checkpoint vote we cast (textbook PBFT replaces local
	// state with the stable checkpoint's for the same reason).
	if ck.Seq == r.lastExec && r.histDigest != best {
		r.cfg.Obs.Logger("pbft").Warn("checkpoint history drift healed",
			"node", int(r.cfg.Self), "seq", ck.Seq,
			"local", r.histDigest.Hex()[:12], "quorum", best.Hex()[:12])
		r.histDigest = best
	}
	r.stableSeq = ck.Seq
	// Reclaim everything more than one window below the stable point;
	// the retained window keeps gap-fetch working for modest laggards.
	// (Textbook PBFT transfers full state snapshots instead; see
	// DESIGN.md, Documented simplifications.)
	low := int64(r.stableSeq) - checkpointEvery
	for seq := range r.slots {
		if int64(seq) <= low {
			delete(r.slots, seq)
		}
	}
	for seq := range r.ckptVotes {
		if int64(seq) <= low {
			delete(r.ckptVotes, seq)
		}
	}
	for seq := range r.fetchVotes {
		if int64(seq) <= low {
			delete(r.fetchVotes, seq)
		}
	}
	// Executed digests go with their slots: exactly-once delivery of a
	// re-proposed request is kept across the retained window (DESIGN.md,
	// "PBFT vote checks and dedup horizon"), and the map stays bounded.
	for d, seq := range r.executedDig {
		if int64(seq) <= low {
			delete(r.executedDig, d)
		}
	}
	for v := range r.vcVotes {
		if v+1 < r.view { // stale view-change bookkeeping
			delete(r.vcVotes, v)
		}
	}
}

// SlotCount reports retained protocol slots — a memory metric for tests
// and monitoring. It reads an atomically published mirror, so it is safe
// to call while the replica is running; the value trails the event loop
// by at most one event.
func (r *Replica) SlotCount() int { return int(r.slotGauge.Load()) }

// gapFetch asks peers for the decision of the first unexecuted slot when
// higher slots are already committed locally — proof the gap slot was
// decided globally. Returns whether a fetch was sent.
func (r *Replica) gapFetch() bool {
	gap := r.lastExec + 1
	if s, ok := r.slots[gap]; ok && s.committed {
		if s.hasPP {
			// Value present; execution just hasn't been driven yet.
			r.executeReady()
			return false
		}
		// Committed by quorum but the value is still missing. onCommit
		// sent a one-shot fetch, but peers answer only for slots they
		// have committed themselves — if that fetch raced ahead of them
		// it fell on deaf ears, and without a retry the replica wedges
		// here forever while the rest of the cluster moves on (and
		// eventually garbage-collects the slot past recovery). Re-ask on
		// every timeout until someone can vouch for the value.
		r.cfg.Obs.Inc("pbft/fetches")
		r.ep.Multicast(r.cfg.Nodes, msgFetch, fetch{Seq: gap})
		return true
	}
	// Strong evidence: a higher slot committed locally, so the gap is
	// decided somewhere. But even without it, asking costs n messages
	// and recovers a replica whose commit traffic was entirely lost —
	// peers only answer for slots they actually executed, and adoption
	// needs f+1 matching answers, so a speculative ask is safe. A peer
	// execution point above the gap (from status gossip) is evidence too:
	// it is what keeps catch-up chaining slot after slot on a restarted
	// replica that has no local work at all.
	if gap > r.knownExec && !r.hasWorkAbove(gap) && len(r.pending) == 0 {
		return false
	}
	r.cfg.Obs.Inc("pbft/fetches")
	r.ep.Multicast(r.cfg.Nodes, msgFetch, fetch{Seq: gap})
	return true
}

// hasWorkAbove reports whether any slot above gap is committed/executed.
func (r *Replica) hasWorkAbove(gap uint64) bool {
	for seq, s := range r.slots {
		if seq > gap && (s.committed || s.executed) {
			return true
		}
	}
	return false
}

// onFetchReply fills in a slot we missed. Two cases: the slot is
// commit-quorum-backed locally and only the value is missing (reply
// digest must match the quorum digest); or we are gap-recovering and
// accept a digest confirmed by f+1 distinct peers (at most f lie).
func (r *Replica) onFetchReply(from types.NodeID, fr fetchReply) {
	s := r.slot(fr.Seq)
	if s.executed {
		return
	}
	if s.committed {
		if s.hasPP || s.digest != fr.Digest {
			return
		}
		s.hasPP = true
		s.value = fr.Value
		r.executeReady()
		return
	}
	// Gap recovery: require f+1 matching digests.
	m, ok := r.fetchVotes[fr.Seq]
	if !ok {
		m = map[types.NodeID]fetchReply{}
		r.fetchVotes[fr.Seq] = m
	}
	m[from] = fr
	count := 0
	for _, v := range m {
		if v.Digest == fr.Digest {
			count++
		}
	}
	if count < r.cfg.MaxByzFaults()+1 {
		return
	}
	s.digest = fr.Digest
	s.value = fr.Value
	s.hasPP = true
	s.committed = true
	delete(r.fetchVotes, fr.Seq)
	before := r.lastExec
	r.executeReady()
	// Catching up: chain straight to the next gap rather than waiting a
	// full timeout per slot.
	if r.lastExec > before {
		r.gapFetch()
	}
}

// propose assigns the next sequence number and broadcasts a pre-prepare.
func (r *Replica) propose(digest types.Hash, value any) {
	if r.proposed[digest] {
		return
	}
	r.proposed[digest] = true
	seq := r.nextSeq
	r.nextSeq++
	pp := prePrepare{
		View: r.view, Seq: seq, Digest: digest, Value: value,
		Sig: r.cfg.SignPart([]byte(msgPrePrepare), consensus.U64(r.view), consensus.U64(seq), digest[:]),
	}
	r.ep.Multicast(r.cfg.Nodes, msgPrePrepare, pp)
	r.acceptPrePrepare(r.cfg.Self, pp)
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
	case msgPrepPartial:
		pm, ok := m.Payload.(partialMsg)
		if !ok {
			return
		}
		r.onPrepPartial(m.From, pm)
	case msgCommPartial:
		pm, ok := m.Payload.(partialMsg)
		if !ok {
			return
		}
		r.onCommPartial(m.From, pm)
	case msgPrepCert:
		cm, ok := m.Payload.(certMsg)
		if !ok {
			return
		}
		r.onPrepCert(m.From, cm)
	case msgCommCert:
		cm, ok := m.Payload.(certMsg)
		if !ok {
			return
		}
		r.onCommCert(m.From, cm)
	case msgPrePrepare:
		pp, ok := m.Payload.(prePrepare)
		if !ok {
			return
		}
		if !r.cfg.VerifyPart(m.From, pp.Sig, []byte(msgPrePrepare), consensus.U64(pp.View), consensus.U64(pp.Seq), pp.Digest[:]) {
			return
		}
		r.acceptPrePrepare(m.From, pp)
	case msgPrepare:
		v, ok := m.Payload.(vote)
		if !ok || !r.verifyVote(m.From, msgPrepare, v) {
			return
		}
		r.onPrepare(m.From, v)
	case msgCommit:
		v, ok := m.Payload.(vote)
		if !ok || !r.verifyVote(m.From, msgCommit, v) {
			return
		}
		r.onCommit(m.From, v)
	case msgViewChange:
		vc, ok := m.Payload.(viewChange)
		if !ok {
			return
		}
		if !r.cfg.VerifyPart(m.From, vc.Sig, []byte(msgViewChange), consensus.U64(vc.NewView)) {
			return
		}
		r.onViewChange(m.From, &vc)
	case msgNewView:
		nv, ok := m.Payload.(newView)
		if !ok {
			return
		}
		if !r.cfg.VerifyPart(m.From, nv.Sig, []byte(msgNewView), consensus.U64(nv.NewView)) {
			return
		}
		r.onNewView(m.From, nv)
	case msgFetch:
		f, ok := m.Payload.(fetch)
		if !ok {
			return
		}
		if s, ok := r.slots[f.Seq]; ok && s.hasPP && s.committed {
			// Null-filled slots are legitimate answers too: the requester
			// needs to know the slot decided "nothing".
			r.ep.Send(m.From, msgFetchReply, fetchReply{Seq: f.Seq, Digest: s.digest, Value: s.value})
		}
	case msgFetchReply:
		fr, ok := m.Payload.(fetchReply)
		if !ok {
			return
		}
		r.onFetchReply(m.From, fr)
	case msgCheckpoint:
		ck, ok := m.Payload.(checkpoint)
		if !ok {
			return
		}
		if !r.cfg.VerifyPart(m.From, ck.Sig, []byte(msgCheckpoint), consensus.U64(ck.Seq), ck.Hist[:]) {
			return
		}
		r.onCheckpoint(m.From, ck)
	case msgStatus:
		st, ok := m.Payload.(status)
		if !ok {
			return
		}
		if !r.cfg.VerifyPart(m.From, st.Sig, []byte(msgStatus), consensus.U64(st.LastExec)) {
			return
		}
		// Remember the furthest execution point any peer claims; gapFetch
		// uses it to keep chaining fetches during crash recovery. A lying
		// peer can only cause wasted fetches — adoption still needs f+1
		// matching replies.
		if st.LastExec > r.knownExec {
			r.knownExec = st.LastExec
		}
		// A peer is ahead: fetch the first slot we are missing. Adoption
		// still requires f+1 agreeing replies, so a single lying peer
		// costs only a wasted fetch.
		if st.LastExec > r.lastExec {
			r.cfg.Obs.Inc("pbft/fetches")
			r.ep.Multicast(r.cfg.Nodes, msgFetch, fetch{Seq: r.lastExec + 1})
		}
	}
}

// verifyVote authenticates a counted-mode prepare or commit. A vote
// that can no longer change its slot is dropped unverified, which bounds
// the signature checks per phase near the quorum instead of n-1: a
// prepare for the pre-prepared (view, digest) once this replica has
// sent its commit (its prepare quorum is complete, and a later vote
// only matters to view-change bookkeeping that already counts the
// quorum), and any commit for a slot already committed or executed
// (onCommit ignores it). A forged late vote is thus dropped, not
// rejected — either way it leaves no trace in the slot.
func (r *Replica) verifyVote(from types.NodeID, typ string, v vote) bool {
	if s, ok := r.slots[v.Seq]; ok {
		late := s.committed || s.executed
		if typ == msgPrepare {
			late = s.sentCommit && s.ppView == v.View && s.digest == v.Digest
		}
		if late {
			r.cfg.Obs.Inc("pbft/votes_unverified")
			return false
		}
	}
	if r.onVerify != nil {
		r.onVerify(typ, v.Seq)
	}
	return r.cfg.VerifyPart(from, v.Sig, []byte(typ), consensus.U64(v.View), consensus.U64(v.Seq), v.Digest[:])
}

func (r *Replica) slot(seq uint64) *slot {
	s, ok := r.slots[seq]
	if !ok {
		s = newSlot()
		r.slots[seq] = s
	}
	return s
}

func (r *Replica) acceptPrePrepare(from types.NodeID, pp prePrepare) {
	if r.inViewChange || pp.View != r.view || from != r.primary(pp.View) {
		return
	}
	s := r.slot(pp.Seq)
	if s.hasPP && s.ppView == pp.View && s.digest != pp.Digest {
		return // equivocation: first pre-prepare wins for this view
	}
	if s.executed {
		return
	}
	if s.ppView != pp.View {
		// A slot the new view did not re-propose (above the new-view's
		// MaxSeq) still carries the old view's send flags; without the
		// reset this replica would never commit it in the new view, and
		// verifyVote would drop the new view's prepares as late.
		s.sentCommit = false
		s.resetAggPhase()
	}
	s.hasPP = true
	s.ppView = pp.View
	s.digest = pp.Digest
	s.value = pp.Value
	r.cfg.Obs.Mark(pp.Digest, pp.Seq, obs.PhasePropose)
	// Accepting a pre-prepare is work arrival, not execution progress: a
	// live primary streaming proposals must not keep resetting the timer
	// while execution is wedged behind an earlier un-prepared slot.
	r.ensureTimer()

	if r.aggMode {
		r.sendPartial(msgPrepPartial, pp.View, pp.Seq, pp.Digest)
		return
	}
	p := vote{
		View: pp.View, Seq: pp.Seq, Digest: pp.Digest,
		Sig: r.cfg.SignPart([]byte(msgPrepare), consensus.U64(pp.View), consensus.U64(pp.Seq), pp.Digest[:]),
	}
	r.castVote(msgPrepare, p)
	r.onPrepare(r.cfg.Self, p)
}

// castVote multicasts a counted-mode vote, through the batcher when vote
// batching is enabled.
func (r *Replica) castVote(typ string, v vote) {
	if r.batcher != nil {
		r.batcher.Multicast(r.cfg.Nodes, typ, v)
		return
	}
	r.ep.Multicast(r.cfg.Nodes, typ, v)
}

// sendPartial signs the phase statement and routes the share to the
// current primary (directly on the primary itself, batched when enabled).
func (r *Replica) sendPartial(typ string, view, seq uint64, d types.Hash) {
	st := prepStatement(view, seq, d)
	if typ == msgCommPartial {
		st = commStatement(view, seq, d)
	}
	pm := partialMsg{View: view, Seq: seq, Digest: d, Part: r.voteKeys.Sign(r.cfg.Self, st)}
	primary := r.primary(view)
	switch {
	case primary == r.cfg.Self && typ == msgPrepPartial:
		r.onPrepPartial(r.cfg.Self, pm)
	case primary == r.cfg.Self:
		r.onCommPartial(r.cfg.Self, pm)
	case r.batcher != nil:
		r.batcher.Enqueue(primary, typ, pm)
	default:
		r.ep.Send(primary, typ, pm)
	}
}

// onPrepPartial runs on the primary: it folds prepare shares for a slot it
// pre-prepared and, at exactly the quorum threshold, broadcasts the
// prepare certificate.
func (r *Replica) onPrepPartial(from types.NodeID, pm partialMsg) {
	if !r.aggMode || pm.Part.Signer != from {
		return
	}
	if r.inViewChange || pm.View != r.view || !r.isPrimary() {
		return
	}
	s := r.slot(pm.Seq)
	if s.executed || s.sentPrepCert || !s.hasPP || s.ppView != pm.View || s.digest != pm.Digest {
		return
	}
	st := prepStatement(pm.View, pm.Seq, pm.Digest)
	if s.prepAgg == nil || s.prepAgg.Statement() != st {
		s.prepAgg = quorumcert.NewAggregator(r.voteKeys, r.cfg.Nodes, r.cfg.ByzQuorum(), st)
	}
	n, err := s.prepAgg.Add(pm.Part)
	if err != nil {
		r.cfg.Obs.Inc("quorumcert/partials_rejected")
		return
	}
	r.cfg.Obs.Inc("quorumcert/partials")
	if n != r.cfg.ByzQuorum() {
		return
	}
	cert, err := s.prepAgg.Cert()
	if err != nil {
		return
	}
	s.sentPrepCert = true
	r.cfg.Obs.Inc("quorumcert/certs_built")
	cm := certMsg{View: pm.View, Seq: pm.Seq, Digest: pm.Digest, Cert: *cert}
	r.ep.Multicast(r.cfg.Nodes, msgPrepCert, cm)
	r.onPrepCert(r.cfg.Self, cm)
}

// onPrepCert marks a slot prepared once the primary's aggregate prepare
// certificate verifies, then contributes a commit share. The prepared flag
// is this mode's equivalent of a counted prepare quorum: startViewChange
// folds such slots into the prepared certificates the next view preserves.
func (r *Replica) onPrepCert(from types.NodeID, cm certMsg) {
	if !r.aggMode || from != r.primary(cm.View) {
		return
	}
	if r.inViewChange || cm.View != r.view {
		return
	}
	s := r.slot(cm.Seq)
	if s.executed || s.prepared {
		return
	}
	// The prepare phase is view-local and needs the pre-prepared value: a
	// replica that missed the pre-prepare stays silent here and recovers
	// through the commit certificate + fetch path instead.
	if !s.hasPP || s.ppView != cm.View || s.digest != cm.Digest {
		return
	}
	if cm.Cert.Statement != prepStatement(cm.View, cm.Seq, cm.Digest) {
		return
	}
	if err := cm.Cert.Verify(r.voteKeys, r.cfg.Nodes, r.cfg.ByzQuorum()); err != nil {
		r.cfg.Obs.Inc("quorumcert/cert_verify_failures")
		return
	}
	r.cfg.Obs.Inc("quorumcert/certs_verified")
	s.prepared = true
	r.cfg.Obs.Mark(cm.Digest, cm.Seq, obs.PhasePrepare)
	r.sendPartial(msgCommPartial, cm.View, cm.Seq, cm.Digest)
}

// onCommPartial runs on the primary: commit shares fold into the commit
// certificate, whose broadcast decides the slot on every replica.
func (r *Replica) onCommPartial(from types.NodeID, pm partialMsg) {
	if !r.aggMode || pm.Part.Signer != from {
		return
	}
	if r.inViewChange || pm.View != r.view || !r.isPrimary() {
		return
	}
	s := r.slot(pm.Seq)
	if s.executed || s.sentCommCert || !s.hasPP || s.ppView != pm.View || s.digest != pm.Digest {
		return
	}
	st := commStatement(pm.View, pm.Seq, pm.Digest)
	if s.commAgg == nil || s.commAgg.Statement() != st {
		s.commAgg = quorumcert.NewAggregator(r.voteKeys, r.cfg.Nodes, r.cfg.ByzQuorum(), st)
	}
	n, err := s.commAgg.Add(pm.Part)
	if err != nil {
		r.cfg.Obs.Inc("quorumcert/partials_rejected")
		return
	}
	r.cfg.Obs.Inc("quorumcert/partials")
	if n != r.cfg.ByzQuorum() {
		return
	}
	cert, err := s.commAgg.Cert()
	if err != nil {
		return
	}
	s.sentCommCert = true
	r.cfg.Obs.Inc("quorumcert/certs_built")
	cm := certMsg{View: pm.View, Seq: pm.Seq, Digest: pm.Digest, Cert: *cert}
	r.ep.Multicast(r.cfg.Nodes, msgCommCert, cm)
	r.onCommCert(r.cfg.Self, cm)
}

// onCommCert finalizes a slot from the aggregate commit certificate. Like
// counted commit quorums, it is accepted regardless of the local view —
// the certificate proves the slot decided globally, which is the laggard
// recovery path; only provenance (the certificate view's primary) and the
// certificate itself are checked.
func (r *Replica) onCommCert(from types.NodeID, cm certMsg) {
	if !r.aggMode || from != r.primary(cm.View) {
		return
	}
	s := r.slot(cm.Seq)
	if s.executed || s.committed {
		return
	}
	if cm.Cert.Statement != commStatement(cm.View, cm.Seq, cm.Digest) {
		return
	}
	if err := cm.Cert.Verify(r.voteKeys, r.cfg.Nodes, r.cfg.ByzQuorum()); err != nil {
		r.cfg.Obs.Inc("quorumcert/cert_verify_failures")
		return
	}
	r.cfg.Obs.Inc("quorumcert/certs_verified")
	s.committed = true
	r.cfg.Obs.MarkLatency("pbft/commit_latency", cm.Digest, cm.Seq, obs.PhasePropose, obs.PhaseCommit)
	if !s.hasPP || s.digest != cm.Digest {
		// The certificate proves the digest; the value is still missing.
		// Adopt the digest and recover the value over the fetch path.
		s.digest = cm.Digest
		s.hasPP = false
		s.value = nil
		r.cfg.Obs.Inc("pbft/fetches")
		r.ep.Multicast(r.cfg.Nodes, msgFetch, fetch{Seq: cm.Seq})
		return
	}
	r.executeReady()
}

func (r *Replica) onPrepare(from types.NodeID, v vote) {
	if v.View != r.view || r.inViewChange {
		return
	}
	s := r.slot(v.Seq)
	n := s.prepares.Add(viewKey(v.View), from, v.Digest)
	if !s.hasPP || s.ppView != v.View || s.digest != v.Digest {
		return
	}
	if n >= r.cfg.ByzQuorum() && !s.sentCommit {
		s.sentCommit = true
		r.cfg.Obs.Mark(v.Digest, v.Seq, obs.PhasePrepare)
		c := vote{
			View: v.View, Seq: v.Seq, Digest: v.Digest,
			Sig: r.cfg.SignPart([]byte(msgCommit), consensus.U64(v.View), consensus.U64(v.Seq), v.Digest[:]),
		}
		r.castVote(msgCommit, c)
		r.onCommit(r.cfg.Self, c)
	}
}

func (r *Replica) onCommit(from types.NodeID, v vote) {
	// Commit votes are counted regardless of the local view: 2f+1
	// matching commits for (view, seq, digest) prove the slot is decided
	// globally, so a replica that drifted into a different view can still
	// finalize — the laggard-recovery path.
	s := r.slot(v.Seq)
	if s.executed || s.committed {
		return
	}
	n := s.commits.Add(viewKey(v.View), from, v.Digest)
	if n < r.cfg.ByzQuorum() {
		return
	}
	s.committed = true
	r.cfg.Obs.MarkLatency("pbft/commit_latency", v.Digest, v.Seq, obs.PhasePropose, obs.PhaseCommit)
	if !s.hasPP || s.digest != v.Digest {
		// Quorum proves the digest, but we missed the pre-prepare and
		// have no value: adopt the digest and fetch the value.
		s.digest = v.Digest
		s.hasPP = false
		s.value = nil
		r.cfg.Obs.Inc("pbft/fetches")
		r.ep.Multicast(r.cfg.Nodes, msgFetch, fetch{Seq: v.Seq})
		return
	}
	r.executeReady()
}

// executeReady delivers committed slots in sequence order.
func (r *Replica) executeReady() {
	executed := false
	for {
		s, ok := r.slots[r.lastExec+1]
		if !ok || !s.committed || s.executed {
			break
		}
		executed = true
		if !s.hasPP && !s.digest.IsZero() {
			break // committed by quorum but value still in flight (fetch)
		}
		s.executed = true
		r.lastExec++
		r.execsInView++
		delete(r.pending, s.digest)
		delete(r.fetchVotes, r.lastExec)
		r.histDigest = types.HashConcat(r.histDigest[:], s.digest[:])
		if r.lastExec%checkpointEvery == 0 {
			ck := checkpoint{
				Seq: r.lastExec, Hist: r.histDigest,
				Sig: r.cfg.SignPart([]byte(msgCheckpoint), consensus.U64(r.lastExec), r.histDigest[:]),
			}
			r.ep.Multicast(r.cfg.Nodes, msgCheckpoint, ck)
			r.onCheckpoint(r.cfg.Self, ck)
		}
		if !s.digest.IsZero() { // null slots fill view-change gaps silently
			// A view change can re-propose a request that already executed
			// at an earlier slot on some replicas; every replica executes
			// each digest exactly once, at its first slot.
			if _, dup := r.executedDig[s.digest]; !dup {
				r.executedDig[s.digest] = r.lastExec
				r.cfg.Obs.Mark(s.digest, r.lastExec, obs.PhaseApply)
				r.cfg.Obs.Inc("pbft/decisions")
				r.decCh <- consensus.Decision{Seq: r.lastExec, Digest: s.digest, Value: s.value, Node: r.cfg.Self}
			}
		}
	}
	// Only actual execution progress restarts the failure-detection
	// deadline. executeReady also runs on every commit-quorum event with
	// the gap slot still blocking — a stream of commits on later slots
	// must not keep pushing the deadline out while lastExec is stuck.
	//
	// The backoff ladder decays one step per healthyViewExecs executed
	// slots rather than resetting on any progress: a view that drains a
	// large batch has proven its primary live and can afford a shorter
	// deadline, while churn-zone views (a handful of executions before
	// the next timeout) never decay, which is what prevents a deep
	// backlog from livelocking in 150ms view changes. A full drain
	// clears the ladder outright.
	for r.execsInView >= healthyViewExecs {
		r.execsInView -= healthyViewExecs
		if r.vcBackoff > 0 {
			r.vcBackoff--
		}
	}
	if executed {
		if !r.outstanding() {
			r.vcBackoff = 0
		}
		r.armTimer()
	} else {
		r.ensureTimer()
	}
}

// outstanding reports whether work is queued that has not yet executed —
// pending requests or accepted-but-unexecuted slots.
func (r *Replica) outstanding() bool {
	if len(r.pending) > 0 {
		return true
	}
	for seq, s := range r.slots {
		if seq > r.lastExec && s.hasPP && !s.executed {
			return true
		}
	}
	return false
}

// viewTimeout is the current failure-detection timeout: the configured
// base, doubled for every consecutive view change that produced no
// execution progress (Castro & Liskov §4.5.2). Without the backoff a
// large backlog livelocks: no 150ms view lives long enough to re-propose
// and prepare a slot, so the cluster burns forever in view changes. The
// shift is capped so a long outage cannot push recovery out indefinitely.
func (r *Replica) viewTimeout() time.Duration {
	shift := r.vcBackoff
	if shift > 5 {
		shift = 5
	}
	return r.cfg.Timeout << shift
}

// armTimer restarts the failure-detection timer when there is outstanding
// work and stops it when fully caught up. Used on progress paths
// (execution advanced, new view entered).
func (r *Replica) armTimer() {
	if r.outstanding() {
		r.timer.Reset(r.viewTimeout())
	} else {
		r.timer.Stop()
	}
}

// ensureTimer is armTimer without the deadline push-out: it arms the
// timer only when it is not already running. Used on work-arrival paths
// (request received, pre-prepare accepted) so a steady stream of arrivals
// cannot postpone failure detection forever.
func (r *Replica) ensureTimer() {
	if r.outstanding() {
		r.timer.Ensure(r.viewTimeout())
	} else {
		r.timer.Stop()
	}
}

func (r *Replica) onTimeout() {
	// State transfer beats view change when the system has visibly moved
	// on without us: if a slot above our execution gap is already
	// committed, the gap was decided somewhere — fetch it instead of
	// dragging everyone through another view.
	if !r.fetchTried && r.gapFetch() {
		r.fetchTried = true
		r.timer.Reset(r.viewTimeout())
		return
	}
	r.fetchTried = false
	// Links are lossy in general: before escalating to yet another view,
	// retransmit the current view-change vote once — it is the protocol's
	// only retransmission mechanism, and without it view-change quorums
	// may never assemble under loss.
	if r.inViewChange && r.lastVC != nil && !r.vcResent {
		r.vcResent = true
		r.ep.Multicast(r.cfg.Nodes, msgViewChange, *r.lastVC)
		r.timer.Reset(r.viewTimeout() * 2)
		return
	}
	r.startViewChange(r.view + 1)
}

// startViewChange abandons the current view and broadcasts the prepared
// certificates the next primary must preserve.
func (r *Replica) startViewChange(newV uint64) {
	if newV <= r.view && r.inViewChange {
		return
	}
	// Climb the timeout ladder on every view change. Resetting on mere
	// progress would re-enter the churn zone while a deep backlog is
	// still draining — each view change grows more expensive as prepared
	// certificates accumulate, so the ladder only decays once a view
	// demonstrably drains work (see executeReady).
	r.vcBackoff++
	r.execsInView = 0
	r.view = newV
	r.inViewChange = true
	r.cfg.Obs.Inc("pbft/view_changes")
	r.cfg.Obs.SetGauge("pbft/view", int64(newV))
	r.cfg.Obs.NoteViewChange()
	r.cfg.Obs.Logger("pbft").Warn("view change started",
		"node", int(r.cfg.Self), "view", newV, "last_exec", r.lastExec)
	var certs []preparedCert
	for seq, s := range r.slots {
		if seq <= r.lastExec {
			continue
		}
		if s.hasPP && (s.prepares.Count(viewKey(s.ppView), s.digest) >= r.cfg.ByzQuorum() || s.prepared) {
			certs = append(certs, preparedCert{Seq: seq, Digest: s.digest, Value: s.value})
		}
	}
	// Executed-but-above-lastExec cannot happen (execution is in order),
	// but committed slots above lastExec must survive too: they are
	// prepared by definition, so the loop above already includes them.
	vc := viewChange{
		NewView: newV, Prepared: certs,
		Sig: r.cfg.SignPart([]byte(msgViewChange), consensus.U64(newV)),
	}
	r.lastVC = &vc
	r.vcResent = false
	r.ep.Multicast(r.cfg.Nodes, msgViewChange, vc)
	r.onViewChange(r.cfg.Self, &vc)
	// If the next primary is also faulty, time out again into view+1.
	r.timer.Reset(r.viewTimeout() * 2)
}

func (r *Replica) onViewChange(from types.NodeID, vc *viewChange) {
	if vc.NewView <= r.view && !(vc.NewView == r.view && r.inViewChange) {
		return
	}
	m, ok := r.vcVotes[vc.NewView]
	if !ok {
		m = map[types.NodeID]*viewChange{}
		r.vcVotes[vc.NewView] = m
	}
	m[from] = vc

	// Straggler resynchronization: if this replica is stable in a view
	// established by a NewView, re-offer that NewView to the sender so a
	// lone replica that timed itself into a dead-end view can rejoin.
	if !r.inViewChange && r.storedNV != nil && from != r.cfg.Self {
		r.ep.Send(from, msgNewView, *r.storedNV)
	}
	// View synchronization under loss: a peer still voting for an older
	// view missed our (higher) view-change vote — resend it directly.
	if r.inViewChange && r.lastVC != nil && from != r.cfg.Self && vc.NewView < r.lastVC.NewView {
		r.ep.Send(from, msgViewChange, *r.lastVC)
	}

	// Joining a view change f+1 other replicas already started prevents a
	// slow replica from being left behind.
	if len(m) >= r.cfg.MaxByzFaults()+1 && vc.NewView > r.view {
		r.startViewChange(vc.NewView)
	}
	if len(m) >= r.cfg.ByzQuorum() && r.primary(vc.NewView) == r.cfg.Self {
		r.sendNewView(vc.NewView, m)
	}
}

func (r *Replica) sendNewView(newV uint64, vcs map[types.NodeID]*viewChange) {
	// Merge prepared certificates; for duplicate seqs any correct cert
	// carries the same digest (quorum intersection), so the first wins.
	merged := map[uint64]preparedCert{}
	var maxSeq uint64
	for _, vc := range vcs {
		for _, c := range vc.Prepared {
			if _, ok := merged[c.Seq]; !ok {
				merged[c.Seq] = c
			}
			if c.Seq > maxSeq {
				maxSeq = c.Seq
			}
		}
	}
	certs := make([]preparedCert, 0, len(merged))
	for _, c := range merged {
		certs = append(certs, c)
	}
	nv := newView{
		NewView: newV, Certs: certs, MaxSeq: maxSeq,
		Sig: r.cfg.SignPart([]byte(msgNewView), consensus.U64(newV)),
	}
	r.ep.Multicast(r.cfg.Nodes, msgNewView, nv)
	r.onNewView(r.cfg.Self, nv)
}

func (r *Replica) onNewView(from types.NodeID, nv newView) {
	// Accept any NewView newer than the last accepted one, even when the
	// local raw view counter has drifted above it: a replica that timed
	// out into views nobody else joined must be able to rejoin the view
	// the quorum actually established.
	if nv.NewView <= r.lastNV || from != r.primary(nv.NewView) {
		return
	}
	r.lastNV = nv.NewView
	r.storedNV = &nv
	r.view = nv.NewView
	r.inViewChange = false
	r.proposed = map[types.Hash]bool{}
	r.cfg.Obs.SetGauge("pbft/view", int64(nv.NewView))
	r.cfg.Obs.Logger("pbft").Info("entered new view",
		"node", int(r.cfg.Self), "view", nv.NewView, "certs", len(nv.Certs))

	covered := map[uint64]bool{}
	for _, c := range nv.Certs {
		covered[c.Seq] = true
	}
	// Re-issue pre-prepares for surviving certificates and null-fill the
	// gaps so execution order has no holes.
	reissue := func(pp prePrepare) {
		if r.cfg.Self == r.primary(nv.NewView) {
			pp.Sig = r.cfg.SignPart([]byte(msgPrePrepare), consensus.U64(pp.View), consensus.U64(pp.Seq), pp.Digest[:])
			r.ep.Multicast(r.cfg.Nodes, msgPrePrepare, pp)
			r.acceptPrePrepare(r.cfg.Self, pp)
		}
	}
	for _, c := range nv.Certs {
		if s, ok := r.slots[c.Seq]; ok && s.executed {
			continue
		}
		// Reset per-view slot vote state lazily: acceptPrePrepare keys
		// votes by view, so stale votes cannot satisfy new-view quorums.
		if s, ok := r.slots[c.Seq]; ok {
			s.hasPP = false
			s.sentCommit = false
			s.resetAggPhase()
		}
		reissue(prePrepare{View: nv.NewView, Seq: c.Seq, Digest: c.Digest, Value: c.Value})
		r.proposed[c.Digest] = true
	}
	for seq := r.lastExec + 1; seq <= nv.MaxSeq; seq++ {
		if covered[seq] {
			continue
		}
		if s, ok := r.slots[seq]; ok {
			if s.executed {
				continue
			}
			s.hasPP = false
			s.sentCommit = false
			s.resetAggPhase()
		}
		reissue(prePrepare{View: nv.NewView, Seq: seq, Digest: types.ZeroHash, Value: nil})
	}
	if r.cfg.Self == r.primary(nv.NewView) && nv.MaxSeq >= r.nextSeq {
		r.nextSeq = nv.MaxSeq + 1
	}
	if r.cfg.Self == r.primary(nv.NewView) && r.nextSeq <= r.lastExec {
		r.nextSeq = r.lastExec + 1
	}

	// Re-forward outstanding requests to the new primary.
	for d, v := range r.pending {
		if r.isPrimary() {
			r.propose(d, v)
		} else {
			r.ep.Send(r.primary(r.view), msgRequest, request{Digest: d, Value: v})
		}
	}
	r.armTimer()
}
