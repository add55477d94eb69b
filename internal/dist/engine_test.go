package dist

import (
	"context"
	"testing"
	"time"

	"ctrlguard/internal/goofi"
)

// TestRunShardBeatsDuringSetUp pins that the keep-alive lives in
// RunShard itself, so the in-process engine beats like the transported
// executors: a shard whose set-up (the golden run with the pruner's
// def-use capture, tens of milliseconds) outlasts one beat interval
// emits a beat before its first record, and nothing after its terminal
// event. The sink appends without a lock, so under the race detector it
// also pins that emit calls are serialised.
func TestRunShardBeatsDuringSetUp(t *testing.T) {
	task := ShardTask{Shard: 2, Start: 5, End: 15, Spec: goofi.CampaignSpec{
		Variant: "alg2", Experiments: 20, Seed: 4, Workers: 2}}
	var events []Event
	if err := runShard(context.Background(), task, time.Millisecond, func(ev Event) {
		events = append(events, ev)
	}); err != nil {
		t.Fatal(err)
	}

	beats, records := 0, 0
	for _, ev := range events {
		if ev.Shard != task.Shard {
			t.Fatalf("event for shard %d, want %d", ev.Shard, task.Shard)
		}
		switch ev.Type {
		case EventBeat:
			beats++
		case EventRecord:
			if records == 0 && beats == 0 {
				t.Error("first record arrived before any keep-alive beat")
			}
			records++
		}
	}
	if records != task.End-task.Start {
		t.Errorf("%d records, want %d", records, task.End-task.Start)
	}
	if last := events[len(events)-1]; last.Type != EventDone {
		t.Errorf("last event %q, want %q", last.Type, EventDone)
	}
}
