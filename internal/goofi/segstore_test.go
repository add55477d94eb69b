package goofi

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func segTestRecords(n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{ID: i, Variant: "alg1", Region: "data", Element: "r1", Bit: uint(i % 31), At: uint64(i % 50), Outcome: "non-effective"}
	}
	return recs
}

func TestSegmentStoreRollsAndReloads(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "c000001.records")
	// ~90-byte records against a 256-byte cap forces several segments.
	s, salvaged, err := OpenSegmentStore(dir, 256)
	if err != nil {
		t.Fatal(err)
	}
	if len(salvaged) != 0 {
		t.Fatalf("fresh store salvaged %d records", len(salvaged))
	}
	recs := segTestRecords(40)
	for _, r := range recs {
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	files, err := SegmentFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 3 {
		t.Fatalf("40 records under a 256-byte cap produced %d segments, want several", len(files))
	}
	got, err := LoadSegmentRecords(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("reloaded %d records, want %d", len(got), len(recs))
	}
	for i := range got {
		if got[i] != recs[i] {
			t.Fatalf("record %d mismatch: %+v != %+v", i, got[i], recs[i])
		}
	}
	// Concatenated segments are byte-identical to the single-file form.
	var concat bytes.Buffer
	for _, f := range files {
		b, _ := os.ReadFile(f)
		concat.Write(b)
	}
	var single bytes.Buffer
	if err := WriteRecords(&single, recs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(concat.Bytes(), single.Bytes()) {
		t.Fatal("segment concatenation diverges from WriteRecords output")
	}
}

func TestSegmentStoreResumeAfterTorn(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "c000001.records")
	s, _, err := OpenSegmentStore(dir, 256)
	if err != nil {
		t.Fatal(err)
	}
	recs := segTestRecords(20)
	for _, r := range recs[:12] {
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	// Simulate a crash: no Close, and the live tail gets a torn line.
	files, _ := SegmentFiles(dir)
	tail := files[len(files)-1]
	f, err := os.OpenFile(tail, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"id":9999,"variant":"alg1","reg`)
	f.Close()

	// LoadSegmentRecords tolerates the torn tail.
	partial, err := LoadSegmentRecords(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(partial) != 12 {
		t.Fatalf("salvaged %d records, want 12", len(partial))
	}

	// Reopening salvages the same 12 and continues appending.
	s2, salvaged, err := OpenSegmentStore(dir, 256)
	if err != nil {
		t.Fatal(err)
	}
	if len(salvaged) != 12 {
		t.Fatalf("reopen salvaged %d records, want 12", len(salvaged))
	}
	for _, r := range recs[12:] {
		if err := s2.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := LoadSegmentRecords(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 20 {
		t.Fatalf("after resume store holds %d records, want 20", len(got))
	}
}

func TestSegmentStoreReopenAfterCleanClose(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "c000001.records")
	s, _, _ := OpenSegmentStore(dir, 1<<20)
	for _, r := range segTestRecords(5) {
		s.Append(r)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// A sealed segment is never appended to: reopening starts a new one.
	s2, salvaged, err := OpenSegmentStore(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if len(salvaged) != 5 {
		t.Fatalf("salvaged %d, want 5", len(salvaged))
	}
	for _, r := range segTestRecords(7)[5:] {
		s2.Append(r)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	got, _ := LoadSegmentRecords(dir)
	if len(got) != 7 {
		t.Fatalf("store holds %d records, want 7", len(got))
	}
}

func TestSegmentPage(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "c000001.records")
	s, _, _ := OpenSegmentStore(dir, 256)
	recs := segTestRecords(40)
	for _, r := range recs {
		s.Append(r)
	}
	s.Close()
	for _, tc := range []struct{ offset, limit, wantLen, wantFirst int }{
		{0, 10, 10, 0},
		{15, 10, 10, 15},
		{35, 10, 5, 35},
		{40, 10, 0, 0},
		{0, 0, 0, 0},
	} {
		page, total, err := SegmentPage(dir, tc.offset, tc.limit)
		if err != nil {
			t.Fatal(err)
		}
		if total != 40 {
			t.Fatalf("offset %d: total = %d, want 40", tc.offset, total)
		}
		if len(page) != tc.wantLen {
			t.Fatalf("offset %d limit %d: got %d records, want %d", tc.offset, tc.limit, len(page), tc.wantLen)
		}
		if tc.wantLen > 0 && page[0].ID != tc.wantFirst {
			t.Fatalf("offset %d: first record ID %d, want %d", tc.offset, page[0].ID, tc.wantFirst)
		}
	}
	// Missing directory pages empty.
	page, total, err := SegmentPage(filepath.Join(t.TempDir(), "nope"), 0, 10)
	if err != nil || total != 0 || len(page) != 0 {
		t.Fatalf("missing dir paged %d/%d, %v", len(page), total, err)
	}
}

func TestCompactSegments(t *testing.T) {
	base := t.TempDir()
	dir := filepath.Join(base, "c000001.records")
	s, _, _ := OpenSegmentStore(dir, 256)
	recs := segTestRecords(25)
	for _, r := range recs {
		s.Append(r)
	}
	s.Close()
	dst := filepath.Join(base, "c000001.jsonl")
	if err := CompactSegments(dir, dst); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatal("segment dir survived compaction")
	}
	var want bytes.Buffer
	WriteRecords(&want, recs)
	got, _ := os.ReadFile(dst)
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatal("compacted file diverges from canonical record bytes")
	}
}

func TestRecordScannerMatchesReadRecords(t *testing.T) {
	recs := segTestRecords(10)
	var buf bytes.Buffer
	WriteRecords(&buf, recs)
	sc := NewRecordScanner(bytes.NewReader(buf.Bytes()))
	var got []Record
	for sc.Scan() {
		got = append(got, sc.Record())
	}
	if sc.Err() != nil {
		t.Fatal(sc.Err())
	}
	if len(got) != len(recs) {
		t.Fatalf("scanned %d records, want %d", len(got), len(recs))
	}
	for i := range got {
		if got[i] != recs[i] {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

// TestRecordScannerOmittedFieldsDoNotLeak scans a file that mixes lines
// with and without the omitempty fields (mechanism, model, width,
// provenance): a line that omits them must decode with them zero, not
// carry over the previous line's values.
func TestRecordScannerOmittedFieldsDoNotLeak(t *testing.T) {
	full := Record{ID: 0, Variant: "alg1", Region: "Registers", Element: "r3", Bit: 4, At: 100,
		Outcome: "detected", Mechanism: "ACCESS CHECK", Model: "burst", Width: 3,
		Provenance: "class-representative:2"}
	bare := Record{ID: 1, Variant: "alg1", Region: "Cache", Element: "line0", Bit: 1, At: 200,
		Outcome: "overwritten"}
	partial := Record{ID: 2, Variant: "alg1", Region: "Registers", Element: "pc", Bit: 2, At: 300,
		Outcome: "detected", Mechanism: "INSTRUCTION ERROR", Provenance: "simulated"}
	recs := []Record{full, bare, partial, bare, full}
	var buf bytes.Buffer
	if err := WriteRecords(&buf, recs); err != nil {
		t.Fatal(err)
	}
	sc := NewRecordScanner(bytes.NewReader(buf.Bytes()))
	var got []Record
	for sc.Scan() {
		got = append(got, sc.Record())
	}
	if sc.Err() != nil {
		t.Fatal(sc.Err())
	}
	if len(got) != len(recs) {
		t.Fatalf("scanned %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Errorf("line %d: scanned %+v, want %+v", i+1, got[i], recs[i])
		}
	}
}

func TestRecordScannerTornTail(t *testing.T) {
	recs := segTestRecords(3)
	var buf bytes.Buffer
	WriteRecords(&buf, recs)
	buf.WriteString(`{"id":9999,"vari`)
	sc := NewRecordScanner(bytes.NewReader(buf.Bytes()))
	n := 0
	for sc.Scan() {
		n++
	}
	var trunc *TruncatedError
	if !errors.As(sc.Err(), &trunc) {
		t.Fatalf("torn tail gave %v, want TruncatedError", sc.Err())
	}
	if n != 3 {
		t.Fatalf("scanned %d intact records, want 3", n)
	}
}

func TestRecordScannerMidStreamCorruption(t *testing.T) {
	recs := segTestRecords(3)
	var buf bytes.Buffer
	WriteRecords(&buf, recs)
	lines := strings.SplitAfter(buf.String(), "\n")
	lines[1] = "{\"id\":bogus}\n"
	sc := NewRecordScanner(strings.NewReader(strings.Join(lines, "")))
	for sc.Scan() {
	}
	err := sc.Err()
	var trunc *TruncatedError
	if err == nil || errors.As(err, &trunc) {
		t.Fatalf("mid-stream corruption gave %v, want a hard error", err)
	}
}
