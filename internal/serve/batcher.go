package serve

import (
	"context"
	"sync"
	"time"

	"mega/internal/datasets"
	"mega/internal/models"
)

// pending is one admitted request travelling from the admission queue to
// the worker that answers it.
type pending struct {
	// ctx carries the request deadline/cancellation from the caller
	// through the queue to the worker, which drops expired requests
	// before they burn a forward pass.
	ctx      context.Context
	inst     datasets.Instance
	prep     *models.PreparedRep // MEGA engine only; nil under DGL or degraded
	cacheHit bool
	// degraded marks a request served by the fallback engine because MEGA
	// preprocessing failed or the circuit breaker is open.
	degraded bool
	// enqueued is stamped at the admission send, after validation and
	// preprocessing, so the queue stage times only the wait for a worker.
	enqueued time.Time
	done     chan outcome // buffered(1); finish sends exactly once
	once     sync.Once
}

// finish resolves the request exactly once; later calls are dropped. Both
// the normal completion path and crash/shutdown sweeps go through here, so
// double-answering (e.g. a worker recovering after partially answering a
// batch) cannot deadlock or misroute outcomes.
func (p *pending) finish(o outcome) {
	p.once.Do(func() { p.done <- o })
}

// outcome is the worker's reply to one pending request.
type outcome struct {
	pred Prediction
	err  error
}

// takeBatch forms the batch a free worker runs: first, which the worker
// just received from the admission queue, plus whatever is already queued
// behind it, up to maxBatch, in arrival order. It never waits for company:
// an idle server runs a lone request at once, and batches grow exactly as
// large as the workers are behind.
func takeBatch(queue <-chan *pending, first *pending, maxBatch int) []*pending {
	batch := make([]*pending, 1, min(maxBatch, 1+len(queue)))
	batch[0] = first
	for len(batch) < maxBatch {
		select {
		case p, ok := <-queue:
			if !ok {
				return batch
			}
			batch = append(batch, p)
		default:
			return batch
		}
	}
	return batch
}
