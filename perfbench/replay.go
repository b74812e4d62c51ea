package main

import (
	"fmt"
	"path/filepath"
	"time"

	"permchain/internal/arch"
	"permchain/internal/arch/ox"
	"permchain/internal/arch/oxii"
	"permchain/internal/arch/xov"
	"permchain/internal/core"
	"permchain/internal/ledger"
	"permchain/internal/statedb"
	"permchain/internal/store"
	"permchain/internal/types"
	"permchain/internal/wire"
)

const (
	// maxSyncedBlocks bounds how many replayed blocks are followed by a
	// timed Sync, so the replay's fsync cost stays small on slow disks.
	maxSyncedBlocks = 200
	// endorsePerBlock bounds how many transactions of each block are
	// re-endorsed: endorsement carries the workload's contract work and
	// would otherwise dominate the replay's running time.
	endorsePerBlock = 2
)

// replayStats times each layer's public functions over a run's own
// committed blocks. Per-block values are kept so the report can take
// medians, which the one-off funding blocks do not move.
type replayStats struct {
	encodeUs, decodeUs []float64 // per tx, averaged within a block
	endorseUs          []float64 // per tx, averaged within a block
	executeMs          []float64 // per block
	execUsPerTx        []float64 // per tx, averaged within a block
	ledgerAppendUs     []float64 // per block
	storeAppendUs      []float64 // per block
	fsyncMs            []float64 // per synced block
	snapshotMs         []float64 // per ledger
	replayed           int
	replayTime         time.Duration
}

// blockExecutor runs one ordered block on a fresh world state through
// the workload's architecture engine.
type blockExecutor func(b *types.Block) (arch.Stats, []arch.TxStatus)

func newExecutor(cfg core.Config, st *statedb.Store) blockExecutor {
	switch cfg.Arch {
	case core.OXII:
		return oxii.New(st, cfg.WorkFactor, cfg.Workers).ExecuteBlockStatus
	case core.XOV:
		return xov.New(st, cfg.XOVOptions, cfg.WorkFactor, cfg.Workers).CommitBlockStatus
	default:
		return ox.New(st, cfg.WorkFactor).ExecuteBlockStatus
	}
}

// replayLedger re-runs one ledger (replica 0 of one shard, genesis
// first) through every layer and checks the replayed state against the
// live one. Blocks must no longer be in use by a running chain.
func replayLedger(cfg core.Config, blocks []*types.Block, want types.Hash, dir string, rs *replayStats) error {
	st := statedb.New()
	exec := newExecutor(cfg, st)
	endorser := xov.New(st, xov.Options{}, cfg.WorkFactor, 1)
	led := ledger.NewChain()
	ds, err := store.Open(store.Config{Dir: dir, Fsync: store.FsyncOff})
	if err != nil {
		return fmt.Errorf("replay store: %w", err)
	}
	defer ds.Close()

	enc := wire.GetEncoder()
	defer wire.PutEncoder(enc)
	var offs []int
	synced := 0
	for _, b := range blocks {
		if b.Header.Height == 0 {
			continue
		}
		n := len(b.Txs)
		if n > 0 {
			// Wire: every transaction of the block framed back to back,
			// then each frame decoded.
			enc.Reset()
			offs = offs[:0]
			t0 := time.Now()
			for _, tx := range b.Txs {
				offs = append(offs, enc.Len())
				if err := wire.EncodeFrame(enc, tx); err != nil {
					return fmt.Errorf("replay encode: %w", err)
				}
			}
			t1 := time.Now()
			frames := enc.Frame()
			offs = append(offs, len(frames))
			for i := 0; i < n; i++ {
				if _, err := wire.DecodeFrame(frames[offs[i]:offs[i+1]]); err != nil {
					return fmt.Errorf("replay decode: %w", err)
				}
			}
			t2 := time.Now()
			rs.encodeUs = append(rs.encodeUs, us(t1.Sub(t0))/float64(n))
			rs.decodeUs = append(rs.decodeUs, us(t2.Sub(t1))/float64(n))

			// Endorsement: simulate copies of the block's first
			// transactions against the state the block executes on.
			sample := b.Txs[:min(n, endorsePerBlock)]
			t0 = time.Now()
			for _, tx := range sample {
				_ = endorser.Endorse(&types.Transaction{ID: tx.ID, Ops: tx.Ops}) // a payload failure is a result, not a replay error
			}
			rs.endorseUs = append(rs.endorseUs, us(time.Since(t0))/float64(len(sample)))
		}

		t0 := time.Now()
		exec(b)
		d := time.Since(t0)
		rs.executeMs = append(rs.executeMs, ms(d))
		if n > 0 {
			rs.execUsPerTx = append(rs.execUsPerTx, us(d)/float64(n))
		}

		t0 = time.Now()
		if err := led.Append(b); err != nil {
			return fmt.Errorf("replay ledger append at height %d: %w", b.Header.Height, err)
		}
		rs.ledgerAppendUs = append(rs.ledgerAppendUs, us(time.Since(t0)))

		t0 = time.Now()
		if err := ds.AppendBlock(b); err != nil {
			return fmt.Errorf("replay store append: %w", err)
		}
		rs.storeAppendUs = append(rs.storeAppendUs, us(time.Since(t0)))
		if synced < maxSyncedBlocks {
			synced++
			t0 = time.Now()
			if err := ds.Sync(); err != nil {
				return fmt.Errorf("replay sync: %w", err)
			}
			rs.fsyncMs = append(rs.fsyncMs, ms(time.Since(t0)))
		}
	}
	if got := st.StateHash(); got != want {
		return fmt.Errorf("replayed state %s differs from the live state %s", got.Hex(), want.Hex())
	}

	t0 := time.Now()
	if err := ds.WriteSnapshot(led.Height(), st.Snapshot(), st.StateHash()); err != nil {
		return fmt.Errorf("replay snapshot: %w", err)
	}
	rs.snapshotMs = append(rs.snapshotMs, ms(time.Since(t0)))
	if err := ds.Close(); err != nil {
		return fmt.Errorf("replay store close: %w", err)
	}

	// Recovery read path: reopen the log and stream every block back.
	t0 = time.Now()
	rd, err := store.Open(store.Config{Dir: dir, Fsync: store.FsyncOff})
	if err != nil {
		return fmt.Errorf("replay reopen: %w", err)
	}
	defer rd.Close()
	count := 0
	if err := rd.ReplayBlocks(1, func(*types.Block) error { count++; return nil }); err != nil {
		return fmt.Errorf("replay read-back: %w", err)
	}
	rs.replayTime += time.Since(t0)
	rs.replayed += count
	if count != int(led.Height()) {
		return fmt.Errorf("store replayed %d blocks, ledger holds %d", count, led.Height())
	}
	return nil
}

// replayAll replays every shard's ledger into its own directory.
func replayAll(cfg core.Config, ledgers [][]*types.Block, want []types.Hash, dir string) (replayStats, error) {
	var rs replayStats
	for i, blocks := range ledgers {
		if err := replayLedger(cfg, blocks, want[i], filepath.Join(dir, fmt.Sprintf("replay-%d", i)), &rs); err != nil {
			return rs, fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return rs, nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
