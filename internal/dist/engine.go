package dist

import (
	"context"
	"fmt"
	"sync"
	"time"

	"ctrlguard/internal/goofi"
)

// beatInterval is how often a running shard emits a keep-alive beat;
// it must stay well below any coordinator's lease TTL.
const beatInterval = 500 * time.Millisecond

// RunShard executes one shard task in-process through the goofi engine
// and streams its events to emit. It is the single execution path every
// transport shares: cmd/ctrlexec calls it behind stdin/stdout and HTTP,
// and Engine calls it directly for executor-less (in-process) runs and
// tests. While the engine works it emits a keep-alive beat every
// beatInterval, so the lease of a shard that is merely busy (the golden
// runs, a long experiment) never expires. Calls to emit are serialised,
// and none happens after RunShard returns.
//
// The engine's own guarantees carry over verbatim: records are
// byte-identical to the solo run's (warm start, pruning and all), and
// task.Resume records matching the deterministic plan are reused
// without being re-executed or re-streamed.
func RunShard(ctx context.Context, task ShardTask, emit func(Event)) error {
	return runShard(ctx, task, beatInterval, emit)
}

func runShard(ctx context.Context, task ShardTask, beat time.Duration, sink func(Event)) error {
	cfg, err := task.Spec.Resolve()
	if err != nil {
		return err
	}
	if task.Spec.Sequential() {
		return fmt.Errorf("dist: precision-driven campaigns cannot shard (experiment IDs are not stable across batches)")
	}
	cfg.Shard = &goofi.Shard{Start: task.Start, End: task.End}
	cfg.Resume = task.Resume

	var emitMu sync.Mutex
	emit := func(ev Event) {
		emitMu.Lock()
		defer emitMu.Unlock()
		sink(ev)
	}

	var (
		mu   sync.Mutex
		done int
	)
	cfg.OnResume = func(recs []goofi.Record) {
		mu.Lock()
		done += len(recs)
		d := done
		mu.Unlock()
		// Resumed records are already in the coordinator's segment; a
		// beat reports the head start without re-streaming them.
		emit(Event{Type: EventBeat, Shard: task.Shard, Done: d})
	}
	cfg.OnRecord = func(rec goofi.Record) {
		mu.Lock()
		done++
		d := done
		r := rec
		mu.Unlock()
		emit(Event{Type: EventRecord, Shard: task.Shard, Done: d, Record: &r})
	}

	stop := keepAlive(ctx, task.Shard, beat, emit)
	res, err := goofi.RunContext(ctx, cfg)
	stop()
	if err != nil {
		return err
	}
	emit(Event{Type: EventDone, Shard: task.Shard, Done: done, Result: &ShardResult{
		Shard:   task.Shard,
		Start:   task.Start,
		End:     task.End,
		Done:    done,
		Resumed: res.Faults.Resumed,
		Faults:  res.Faults,
		Prune:   res.Prune,
	}})
	return nil
}

// keepAlive emits a beat event every interval until stopped, covering
// the stretches when the engine is working but no record completes. The
// returned stop function returns once the beating goroutine has exited,
// so no beat follows it.
func keepAlive(ctx context.Context, shard int, every time.Duration, emit func(Event)) (stop func()) {
	done := make(chan struct{})
	exited := make(chan struct{})
	// The ticker starts now, not when the goroutine is first scheduled.
	t := time.NewTicker(every)
	go func() {
		defer close(exited)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-ctx.Done():
				return
			case <-t.C:
				emit(Event{Type: EventBeat, Shard: shard})
			}
		}
	}()
	return func() {
		close(done)
		<-exited
	}
}

// Engine is the in-process Executor: shard tasks run on this process's
// goofi engine with no isolation boundary. It is the fallback when no
// executor binary is available, and the reference implementation the
// transported executors are tested against.
type Engine struct{}

// Name implements Executor.
func (Engine) Name() string { return "inproc" }

// Run implements Executor.
func (Engine) Run(ctx context.Context, task ShardTask, sink func(Event)) error {
	return RunShard(ctx, task, sink)
}
