package main

import (
	"errors"
	"fmt"
	"reflect"
	"time"

	"permchain/internal/arch"
	"permchain/internal/core"
	"permchain/internal/mempool"
	"permchain/internal/obs"
	"permchain/internal/sharding"
	"permchain/internal/sharding/shardcore"
	"permchain/internal/types"
)

// deployment is the running system under test: one chain, or a sharded
// deployment of several. The benchmark reaches it only through these
// calls into the public API.
type deployment interface {
	submit(tx *types.Transaction, settle func(Outcome)) error
	// verify checks replication (and, when sharded, cross-shard
	// atomicity and an empty lock table).
	verify() error
	// balance sums the integer values of keys on replica 0 of the shard
	// owning each key.
	balance(keys []string) int64
	// stateHashes and ledgers report replica 0 of each shard.
	stateHashes() []types.Hash
	ledgers() [][]*types.Block
	heights() []uint64
	metrics() obs.Snapshot
	occupancy() int
	// shardsOf returns how many shards tx touches.
	shardsOf(tx *types.Transaction) int
	stop() error
}

// open builds (or, with recover, reopens from disk) a deployment and
// starts it.
func open(cfg core.Config, recover bool) (deployment, error) {
	if cfg.Sharding != nil {
		mk := sharding.NewChain
		if recover {
			mk = sharding.OpenChain
		}
		c, err := mk(cfg)
		if err != nil {
			return nil, err
		}
		c.Start()
		return &shardedChain{c: c, w: newWatcher()}, nil
	}
	mk := core.New
	if recover {
		mk = core.OpenChain
	}
	c, err := mk(cfg)
	if err != nil {
		return nil, err
	}
	c.Start()
	return &singleChain{c: c}, nil
}

type singleChain struct{ c *core.Chain }

func (s *singleChain) submit(tx *types.Transaction, settle func(Outcome)) error {
	r, err := s.c.SubmitAsync(tx)
	if err != nil {
		return err
	}
	r.OnSettle(func(r *core.Receipt) { settle(coreOutcome(r)) })
	return nil
}

func coreOutcome(r *core.Receipt) Outcome {
	if r.Err() != nil {
		return Orphaned
	}
	switch r.Status() {
	case arch.TxCommitted:
		return Committed
	case arch.TxAborted:
		return Aborted
	default:
		return Failed
	}
}

func (s *singleChain) verify() error { return s.c.VerifyReplication() }

func (s *singleChain) balance(keys []string) int64 {
	st := s.c.Node(0).Store()
	var sum int64
	for _, k := range keys {
		sum += st.GetInt(k)
	}
	return sum
}

func (s *singleChain) stateHashes() []types.Hash {
	return []types.Hash{s.c.Node(0).Store().StateHash()}
}

func (s *singleChain) ledgers() [][]*types.Block {
	return [][]*types.Block{s.c.Node(0).Chain().Blocks()}
}

func (s *singleChain) heights() []uint64 { return []uint64{s.c.Node(0).Chain().Height()} }

func (s *singleChain) metrics() obs.Snapshot { return s.c.Metrics() }

func (s *singleChain) occupancy() int { return poolOccupancy(s.c.Mempool()) }

func (s *singleChain) shardsOf(*types.Transaction) int { return 1 }

func (s *singleChain) stop() error {
	s.c.Stop()
	return nil
}

func poolOccupancy(p *mempool.Pool) int {
	if p == nil {
		return 0
	}
	return p.Stats().Occupancy
}

type shardedChain struct {
	c *shardcore.Chain
	w *watcher
}

func (s *shardedChain) submit(tx *types.Transaction, settle func(Outcome)) error {
	r, err := s.c.SubmitAsync(tx)
	if err != nil {
		return err
	}
	s.w.add <- watchItem{r: r, settle: settle}
	return nil
}

func shardOutcome(r *shardcore.Receipt) Outcome {
	switch r.Status() {
	case shardcore.Committed:
		return Committed
	case shardcore.Aborted:
		return Aborted
	default:
		return Orphaned
	}
}

func (s *shardedChain) verify() error {
	for i := 0; i < s.c.NumShards(); i++ {
		if err := s.c.Shard(types.ShardID(i)).VerifyReplication(); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	if err := s.c.VerifyCrossShardAtomicity(); err != nil {
		return err
	}
	if n := s.c.LockCount(); n != 0 {
		return fmt.Errorf("%d cross-shard locks still held after drain", n)
	}
	return nil
}

func (s *shardedChain) balance(keys []string) int64 {
	var sum int64
	for _, k := range keys {
		sum += s.c.Shard(s.c.Placement().ShardOf(k)).Node(0).Store().GetInt(k)
	}
	return sum
}

func (s *shardedChain) each(fn func(c *core.Chain)) {
	for i := 0; i < s.c.NumShards(); i++ {
		fn(s.c.Shard(types.ShardID(i)))
	}
}

func (s *shardedChain) stateHashes() (out []types.Hash) {
	s.each(func(c *core.Chain) { out = append(out, c.Node(0).Store().StateHash()) })
	return out
}

func (s *shardedChain) ledgers() (out [][]*types.Block) {
	s.each(func(c *core.Chain) { out = append(out, c.Node(0).Chain().Blocks()) })
	return out
}

func (s *shardedChain) heights() (out []uint64) {
	s.each(func(c *core.Chain) { out = append(out, c.Node(0).Chain().Height()) })
	return out
}

// metrics reads the registry every shard shares through Config.Obs.
func (s *shardedChain) metrics() obs.Snapshot { return s.c.Shard(0).Metrics() }

func (s *shardedChain) occupancy() (n int) {
	s.each(func(c *core.Chain) { n += poolOccupancy(c.Mempool()) })
	return n
}

func (s *shardedChain) shardsOf(tx *types.Transaction) int {
	return len(s.c.Placement().Participants(tx))
}

// stop shuts the shards down, which settles every pending receipt, then
// waits for the watcher to deliver those settlements.
func (s *shardedChain) stop() error {
	s.c.Stop()
	return s.w.close()
}

// watcher settles spanning receipts, which have no settle hook, from one
// goroutine selecting over every pending receipt's Done channel, rather
// than parking a goroutine per transaction.
type watcher struct {
	add  chan watchItem
	quit chan struct{}
	done chan struct{}
}

type watchItem struct {
	r      *shardcore.Receipt
	settle func(Outcome)
}

func newWatcher() *watcher {
	w := &watcher{add: make(chan watchItem), quit: make(chan struct{}), done: make(chan struct{})}
	go w.loop()
	return w
}

func (w *watcher) loop() {
	defer close(w.done)
	// cases[0] admits new receipts, cases[1] is the quit signal, and
	// cases[i+2] waits on items[i].
	cases := []reflect.SelectCase{
		{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(w.add)},
		{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(w.quit)},
	}
	var items []watchItem
	quitting := false
	for !quitting || len(items) > 0 {
		chosen, v, _ := reflect.Select(cases)
		switch chosen {
		case 0:
			it := v.Interface().(watchItem)
			items = append(items, it)
			cases = append(cases, reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(it.r.Done())})
		case 1:
			quitting = true
			cases[1].Chan = reflect.Value{} // a zero channel is never chosen
		default:
			i := chosen - 2
			items[i].settle(shardOutcome(items[i].r))
			last := len(items) - 1
			items[i], cases[chosen] = items[last], cases[last+2]
			items, cases = items[:last], cases[:last+2]
		}
	}
}

// errWatcherStuck reports receipts that never settled, even after the
// deployment stopped.
var errWatcherStuck = errors.New("receipts still pending after stop")

// close stops the watcher once every receipt it holds has settled,
// giving up after a bound so a lost receipt cannot hang the benchmark.
func (w *watcher) close() error {
	close(w.quit)
	select {
	case <-w.done:
		return nil
	case <-time.After(drainTimeout):
		return errWatcherStuck
	}
}
