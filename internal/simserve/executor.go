package simserve

import (
	"context"
	"fmt"

	"mobilenet/internal/sweep"
)

// PointExecutor is the sweep dispatcher's execution seam: one call turns a
// distinct sweep point into its encoded result payload. The default (nil
// Config.Executor) implementation runs points on the server's own worker
// pool through the ordinary submit path; a coordinator plugs in a
// fleet-sharding implementation (internal/cluster) that sends each point
// to the worker rendezvous hashing elects for its content hash. The
// dispatcher neither knows nor cares which — progress accounting, error
// semantics and the in-flight bound live above the seam, execution below
// it.
type PointExecutor interface {
	// ExecutePoint returns the payload for the point's canonical spec —
	// byte-identical to what a direct submission of the spec would serve —
	// and whether it was answered without creating new work (a cache hit
	// wherever the point executed). opts is the sweep's envelope, its
	// deadline already resolved against the server's default and cap; it
	// bounds the point, not the sweep. Implementations should honour
	// progress.Cancelled as a bail-early signal and call progress.Started
	// once when real execution begins (cached answers never start).
	ExecutePoint(p sweep.Point, opts SubmitOptions, progress PointProgress) (payload []byte, cached bool, err error)
}

// PointProgress carries the dispatcher's callbacks into an executor. Both
// functions are safe for concurrent use and cheap; executors may call
// Cancelled as often as they like.
type PointProgress struct {
	// Cancelled reports that the sweep has failed and further work is
	// wasted; executors should return promptly (the error is discarded
	// for points that never started).
	Cancelled func() bool
	// Started marks the point as running in the sweep's progress view.
	Started func()
}

// Concurrency is the optional executor interface that widens the
// dispatcher's in-flight bound. The local executor is bounded by the
// worker pool it feeds, but a fleet executor multiplexes N remote pools
// and would idle them at the local bound.
type Concurrency interface {
	// PointConcurrency returns the number of points the executor wants in
	// flight at once; values < 1 defer to the server's worker count.
	PointConcurrency() int
}

// localExecutor is the default PointExecutor: points ride the ordinary
// submit path — answered from the tiered cache, coalesced onto an
// identical in-flight job, or executed on this server's pool — exactly as
// if each had been POSTed individually.
type localExecutor struct{ s *Server }

func (e localExecutor) ExecutePoint(p sweep.Point, opts SubmitOptions, progress PointProgress) ([]byte, bool, error) {
	// A "cached" ticket can race cache eviction before the payload read;
	// resubmitting simply runs the point again, so retry a bounded number
	// of times before giving up.
	for attempt := 0; ; attempt++ {
		ticket, err := e.s.submitPoint(p.Spec, opts, progress.Cancelled)
		if err != nil {
			return nil, false, err
		}
		if ticket.Cached {
			if payload, ok := e.s.cache.Get(ticket.Hash); ok {
				return payload, true, nil
			}
			if attempt >= 2 {
				return nil, false, fmt.Errorf("simserve: cached result for %s evicted before it could be read", ticket.Hash)
			}
			continue
		}
		progress.Started()
		payload, err := e.s.Wait(context.Background(), ticket.JobID)
		if err != nil {
			return nil, false, err
		}
		return payload, false, nil
	}
}

// executor resolves the configured PointExecutor, defaulting to local
// execution.
func (s *Server) executor() PointExecutor {
	if s.cfg.Executor != nil {
		return s.cfg.Executor
	}
	return localExecutor{s}
}

// executorConcurrency resolves the dispatcher's in-flight point bound.
func (s *Server) executorConcurrency(exec PointExecutor) int {
	if c, ok := exec.(Concurrency); ok {
		if n := c.PointConcurrency(); n > 0 {
			return n
		}
	}
	return s.cfg.Workers
}
