package core

import (
	"time"

	"permchain/internal/mempool"
	"permchain/internal/types"
)

// The admission-controlled submit path (Config.Mempool):
//
//	clients -> pool.Admit -> [bounded pool] -> mempoolLoop -> consensus
//
// Admission sheds overload at the front door with typed errors and
// retry-after hints; the drain loop below hands batches to node 0's
// replica when the pool's handoff rule (mempool.Pool.Cut) says one is
// due — a full batch at once, a partial one after the pipeline has
// idled for one round, BatchDeadline at the latest — feeding the same
// intake stage the direct path uses. Commits call pool.Release via
// settleBlock, which re-opens capacity and ends the pool's round — so
// the pool's occupancy is the end-to-end backpressure signal: a slow
// commit pipeline keeps occupancy high and admission sheds harder,
// instead of letting queues and latency grow without bound.

// Mempool returns the chain's admission pool, or nil when the chain
// was built without Config.Mempool.
func (c *Chain) Mempool() *mempool.Pool { return c.pool }

// mempoolLoop is the batch-formation driver. It applies the pool's
// handoff rule whenever the pool signals a change (admission, a full
// batch, the in-flight set draining) or the rule's own timer — the idle
// wait or the deadline — comes due.
func (c *Chain) mempoolLoop() {
	defer c.wg.Done()
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	for {
		var due <-chan time.Time
		if wait := c.proposePooled(false); wait > 0 {
			timer.Reset(wait)
			due = timer.C
		}
		select {
		case <-c.stopCh:
			timer.Stop()
			return
		case <-c.pool.Ready():
			if due != nil && !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
		case <-due:
		}
	}
}

// proposePooled hands batches from the pool to consensus. With
// drain=false it proposes what the handoff rule releases and returns
// how long until the rule can next fire on its own (0: wait for a pool
// signal); Flush passes drain=true to empty the pool. Proposing stops
// once the chain is stopping — whatever was popped but not proposed
// settles through the receipt table as stopped, like every other
// in-flight orphan.
func (c *Chain) proposePooled(drain bool) time.Duration {
	for {
		c.stopMu.RLock()
		if c.stopping {
			c.stopMu.RUnlock()
			return 0
		}
		var batch []*types.Transaction
		var wait time.Duration
		if drain {
			batch = c.pool.NextBatch(c.cfg.BlockSize)
		} else {
			batch, wait = c.pool.Cut(c.cfg.BlockSize)
		}
		if len(batch) == 0 {
			c.stopMu.RUnlock()
			return wait
		}
		c.nodes[0].replica.Submit(batchMsg{Txs: batch}, batchDigest(batch))
		c.stopMu.RUnlock()
	}
}
