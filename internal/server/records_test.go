package server

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"ctrlguard/internal/goofi"
)

// recordBytes renders records as their JSONL file bytes.
func recordBytes(t *testing.T, recs []goofi.Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := goofi.WriteRecords(&buf, recs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFinishedJobsDoNotPinRecords pins the memory contract of finished
// jobs: once the canonical record file is on disk the job keeps only
// the record count, while Records, RecordPage and the view still serve
// every record, also to readers racing the job's completion. A job
// without a data directory keeps its records in memory.
func TestFinishedJobsDoNotPinRecords(t *testing.T) {
	const n = 120
	spec := goofi.CampaignSpec{Variant: "alg1", Experiments: n, Seed: 17}
	want := soloRecordFile(t, spec)
	wantRecs, err := goofi.ReadRecords(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name    string
		dataDir string
	}{{"data-dir", t.TempDir()}, {"in-memory", ""}} {
		t.Run(tc.name, func(t *testing.T) {
			s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4, DataDir: tc.dataDir})
			v := submit(t, ts, `{"variant":"alg1","n":120,"seed":17}`)
			c, err := s.mgr.Get(v.ID)
			if err != nil {
				t.Fatal(err)
			}

			var wg sync.WaitGroup
			for r := 0; r < 4; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						finished := c.Snapshot().State.Terminal()
						c.Records()
						if _, _, err := c.RecordPage(10, 20); err != nil {
							t.Errorf("page while running: %v", err)
							return
						}
						if finished {
							return
						}
					}
				}()
			}
			waitCampaignDone(t, c, time.Minute)
			wg.Wait()

			c.mu.Lock()
			pinned := c.records != nil
			c.mu.Unlock()
			if pinned != (tc.dataDir == "") {
				t.Errorf("records held in memory = %v with data dir %q", pinned, tc.dataDir)
			}
			if got := recordBytes(t, c.Records()); !bytes.Equal(got, want) {
				t.Error("Records differs from a solo run")
			}
			page, total, err := c.RecordPage(100, 50)
			if err != nil {
				t.Fatal(err)
			}
			if total != n || !bytes.Equal(recordBytes(t, page), recordBytes(t, wantRecs[100:])) {
				t.Errorf("page [100,150): total %d, %d records; want total %d and the solo run's last %d",
					total, len(page), n, n-100)
			}
			if got := c.Snapshot().Records; got != n {
				t.Errorf("view reports %d records, want %d", got, n)
			}
		})
	}
}
