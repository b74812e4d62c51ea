package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"permchain/internal/core"
	"permchain/internal/mempool"
	"permchain/internal/obs"
	"permchain/internal/store"
	"permchain/internal/types"
	"permchain/internal/workload"
)

// workloadSpec is one named traffic mix and the chain it runs on. Every
// workload orders with PBFT over n=4 replicas.
type workloadSpec struct {
	name string
	why  string
	// rate is the open-loop offered load in tx/s; zero selects the
	// closed loop with clients outstanding transactions.
	rate    float64
	clients int
	// maxRate bounds how many transactions a closed-loop run can use per
	// second; the generator makes that many up front.
	maxRate float64
	// config shapes the chain; dir is empty for in-memory workloads.
	config func(dir string, o *obs.Obs) core.Config
	// fund returns the set-up transactions, each confined to one shard.
	fund func() []*types.Transaction
	// traffic generates n transactions from seed.
	traffic func(seed int64, n int) []*types.Transaction
	// keys lists every key the traffic touches; the sum of their values
	// is conserved by every transaction and equals fundedTotal.
	keys        []string
	fundedTotal int64
}

func (w *workloadSpec) durable() bool { return w.config("x", nil).Store != nil }

const (
	replicas      = 4
	fundOpsPerTx  = 100
	fundBalance   = 1_000_000
	mempoolCap    = 4096
	crossFraction = 0.2
)

var workloads = []*workloadSpec{ledgerDurable(), fabricXOV(), crossShard2PC()}

func findWorkload(name string) (*workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// ledgerDurable is the ordering and durability path under a steady open
// loop: mempool admission, batching, PBFT, the wire codec, a durable
// ledger with snapshots, and receipts. Execution (one transfer per tx,
// OXII) is cheap, so it measures everything around the executor.
func ledgerDurable() *workloadSpec {
	const accounts = 100_000
	keys := make([]string, accounts)
	for i := range keys {
		keys[i] = workload.AccountKey(i)
	}
	return &workloadSpec{
		name: "ledger-durable",
		why:  "open loop at 1500 tx/s of one-op transfers: admission, batching, PBFT, wire codec, durable ledger and receipts do the work",
		rate: 1500,
		config: func(dir string, o *obs.Obs) core.Config {
			cfg := core.Config{
				Nodes: replicas, Protocol: core.PBFT, Arch: core.OXII,
				WireCodec: true, Obs: o,
				Mempool: &mempool.Config{Capacity: mempoolCap},
			}
			if dir != "" {
				cfg.Store = &store.Config{Dir: dir, Fsync: store.FsyncInterval, SnapshotEvery: 0}
			}
			return cfg
		},
		fund: func() []*types.Transaction { return fundTxs(keys) },
		traffic: func(seed int64, n int) []*types.Transaction {
			return workload.New(seed).Transfers(workload.TransferConfig{Txs: n, Accounts: accounts, MaxAmount: 10})
		},
		keys:        keys,
		fundedTotal: accounts * fundBalance,
	}
}

// fabricXOV is execute-order-validate under a closed loop: endorsement
// (simulation with contract work) dominates, and MVCC validation aborts
// transactions whose reads went stale on the skewed keyspace.
func fabricXOV() *workloadSpec {
	const (
		keyspace   = 10_000
		skew       = 0.5 // share of picks landing in the hottest 10% of keys
		rmwOps     = 2
		readOps    = 6
		workFactor = 1000
	)
	keys := make([]string, keyspace)
	for i := range keys {
		keys[i] = fmt.Sprintf("key%d", i)
	}
	return &workloadSpec{
		name:    "fabric-xov",
		why:     "closed loop of 2-write 6-read transactions on a skewed keyspace under XOV: endorsement and MVCC validation dominate",
		clients: 64, maxRate: 3000,
		config: func(dir string, o *obs.Obs) core.Config {
			return core.Config{
				Nodes: replicas, Protocol: core.PBFT, Arch: core.XOV,
				WorkFactor: workFactor, Obs: o,
				Mempool: &mempool.Config{Capacity: mempoolCap},
			}
		},
		fund: func() []*types.Transaction { return nil },
		traffic: func(seed int64, n int) []*types.Transaction {
			rng := rand.New(rand.NewSource(seed))
			hot := keyspace / 10
			pick := func() string {
				if rng.Float64() < skew {
					return keys[rng.Intn(hot)]
				}
				return keys[rng.Intn(keyspace)]
			}
			txs := make([]*types.Transaction, n)
			for i := range txs {
				ops := make([]types.Op, 0, rmwOps+readOps)
				d := 1 + rng.Int63n(10)
				// The two writes move d between keys, so the keyspace
				// total stays zero.
				ops = append(ops,
					types.Op{Code: types.OpAdd, Key: pick(), Delta: d},
					types.Op{Code: types.OpAdd, Key: pick(), Delta: -d})
				for j := 0; j < readOps; j++ {
					ops = append(ops, types.Op{Code: types.OpGet, Key: pick()})
				}
				txs[i] = &types.Transaction{ID: fmt.Sprintf("rmw-%d", i), Ops: ops}
			}
			return txs
		},
		keys: keys,
	}
}

// crossShard2PC runs two shards of four replicas each; a fifth of the
// transfers span both shards and go through durable 2PC with the lock
// table, the rest commit inside one shard.
func crossShard2PC() *workloadSpec {
	const (
		shards   = 2
		accounts = 10_000 // per shard
	)
	key := func(s, i int) string { return fmt.Sprintf("s%d/acct%d", s, i) }
	var keys []string
	for s := 0; s < shards; s++ {
		for i := 0; i < accounts; i++ {
			keys = append(keys, key(s, i))
		}
	}
	return &workloadSpec{
		name: "cross-shard-2pc",
		why:  "open loop at 1000 tx/s on 2 shards x 4 replicas, 20% cross-shard transfers: the only workload running 2PC and the lock table",
		rate: 1000,
		config: func(dir string, o *obs.Obs) core.Config {
			cfg := core.Config{
				Nodes: replicas, Protocol: core.PBFT, Arch: core.OX, Obs: o,
				Mempool:  &mempool.Config{Capacity: mempoolCap},
				Sharding: &core.ShardingConfig{Shards: shards, Protocol: "sharper"},
			}
			if dir != "" {
				cfg.Store = &store.Config{Dir: dir, Fsync: store.FsyncInterval}
			}
			return cfg
		},
		// Accounts are laid out shard by shard, so every funding
		// transaction stays inside one shard.
		fund: func() []*types.Transaction { return fundTxs(keys) },
		traffic: func(seed int64, n int) []*types.Transaction {
			rng := rand.New(rand.NewSource(seed))
			txs := make([]*types.Transaction, n)
			for i := range txs {
				home := rng.Intn(shards)
				a, b := rng.Intn(accounts), rng.Intn(accounts-1)
				if b >= a {
					b++
				}
				amt := 1 + rng.Int63n(10)
				id := fmt.Sprintf("xfer-%d", i)
				if rng.Float64() < crossFraction {
					other := 1 - home
					txs[i] = &types.Transaction{ID: id, Ops: []types.Op{
						{Code: types.OpAssertGE, Key: key(home, a), Delta: amt},
						{Code: types.OpAdd, Key: key(home, a), Delta: -amt},
						{Code: types.OpAdd, Key: key(other, b), Delta: amt},
					}}
					continue
				}
				txs[i] = &types.Transaction{ID: id, Ops: []types.Op{
					{Code: types.OpTransfer, Key: key(home, a), Key2: key(home, b), Delta: amt},
				}}
			}
			return txs
		},
		keys:        keys,
		fundedTotal: shards * accounts * fundBalance,
	}
}

// fundTxs credits every key with fundBalance, fundOpsPerTx keys per
// transaction, in key order.
func fundTxs(keys []string) []*types.Transaction {
	var txs []*types.Transaction
	for lo := 0; lo < len(keys); lo += fundOpsPerTx {
		hi := lo + fundOpsPerTx
		if hi > len(keys) {
			hi = len(keys)
		}
		ops := make([]types.Op, 0, hi-lo)
		for _, k := range keys[lo:hi] {
			ops = append(ops, types.Op{Code: types.OpAdd, Key: k, Delta: fundBalance})
		}
		txs = append(txs, &types.Transaction{ID: fmt.Sprintf("fund-%d", lo/fundOpsPerTx), Ops: ops})
	}
	return txs
}

// drive runs the workload's traffic against d for window: the open loop
// offers every transaction in txs, the closed loop as many as fit.
func (w *workloadSpec) drive(d deployment, txs []*types.Transaction, window time.Duration, timeSubmit bool) *Run {
	if w.rate > 0 {
		return runOpenLoop(wallClock{}, w.rate, txs, d.submit, isShed, timeSubmit)
	}
	return runClosedLoop(wallClock{}, w.clients, submitters(), window, drainTimeout, txs, d.submit, isShed, timeSubmit)
}

// txCount is how many transactions a window of the workload needs.
func (w *workloadSpec) txCount(window time.Duration) int {
	rate := w.rate
	if rate == 0 {
		rate = w.maxRate
	}
	return int(rate * window.Seconds())
}

// submitters is the closed loop's goroutine count: at most one per CPU,
// and at most two.
func submitters() int {
	n := runtime.NumCPU()
	if n > 2 {
		n = 2
	}
	return n
}
