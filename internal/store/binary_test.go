package store

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aipan/internal/annotate"
)

// randString draws a short string (sometimes empty, sometimes with
// multi-byte runes) from r.
func randString(r *rand.Rand) string {
	alphabet := []rune("abcdefghijklmnop .,/:é— 日本")
	n := r.Intn(18)
	runes := make([]rune, n)
	for i := range runes {
		runes[i] = alphabet[r.Intn(len(alphabet))]
	}
	return string(runes)
}

func randStrings(r *rand.Rand) []string {
	n := r.Intn(4)
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = randString(r)
	}
	return out
}

// randRecord draws a record exercising every codec field: empty and
// multi-byte strings, negative ints (zigzag), empty and populated
// slices.
func randRecord(r *rand.Rand) Record {
	rec := Record{
		Domain:       fmt.Sprintf("r%04d.example.com", r.Intn(10000)),
		Company:      randString(r),
		Tickers:      randStrings(r),
		Sector:       randString(r),
		SectorAbbrev: randString(r),
		Crawl: CrawlInfo{
			Success:          r.Intn(2) == 1,
			PagesFetched:     r.Intn(500) - 50,
			PrivacyPages:     r.Intn(10),
			Duplicates:       r.Intn(10),
			NonEnglish:       r.Intn(10),
			PDFs:             r.Intn(10),
			WellKnownPolicy:  r.Intn(2) == 1,
			WellKnownPrivacy: r.Intn(2) == 1,
			Error:            randString(r),
		},
		Extraction: ExtractionInfo{
			Success:      r.Intn(2) == 1,
			UsedFallback: r.Intn(2) == 1,
			CoreWords:    r.Intn(100000) - 1000,
		},
		AnnotationFallback: randStrings(r),
	}
	for i, n := 0, r.Intn(5); i < n; i++ {
		rec.Annotations = append(rec.Annotations, annotate.Annotation{
			Aspect:        randString(r),
			Meta:          randString(r),
			Category:      randString(r),
			Descriptor:    randString(r),
			Text:          randString(r),
			Line:          r.Intn(2000) - 100,
			Context:       randString(r),
			Novel:         r.Intn(2) == 1,
			RetentionDays: r.Intn(4000) - 1,
			Scope:         randString(r),
		})
	}
	return rec
}

// TestCodecRoundTripRandomized checks the binary codec against the JSON
// codec: for randomized records, encode → decode must reproduce the
// record exactly (JSON form compared, so nil-vs-empty slice conventions
// shared with the JSONL backend are the equality the export relies on).
func TestCodecRoundTripRandomized(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		rec := randRecord(r)
		payload := appendRecord(nil, &rec)
		var got Record
		if err := decodeRecord(payload, &got); err != nil {
			t.Fatalf("record %d: decode: %v\nrecord: %+v", i, err, rec)
		}
		want, _ := json.Marshal(&rec)
		have, _ := json.Marshal(&got)
		if string(want) != string(have) {
			t.Fatalf("record %d round-trip mismatch:\n want %s\n have %s", i, want, have)
		}
	}
}

// TestCodecRefusesMalformedPayloads: every strict prefix of a valid
// encoding must fail to decode (no truncation silently yields a
// record), as must a wrong version byte and trailing bytes.
func TestCodecRefusesMalformedPayloads(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	rec := randRecord(r)
	payload := appendRecord(nil, &rec)
	var got Record

	if err := decodeRecord(nil, &got); err == nil {
		t.Error("empty payload decoded")
	}
	for i := 0; i < len(payload); i++ {
		if err := decodeRecord(payload[:i], &got); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded as a complete record", i, len(payload))
		}
	}

	bumped := append([]byte{codecVersion + 1}, payload[1:]...)
	if err := decodeRecord(bumped, &got); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("future version byte: err = %v, want version refusal", err)
	}

	trailing := append(append([]byte{}, payload...), 0)
	if err := decodeRecord(trailing, &got); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Errorf("trailing byte: err = %v, want trailing-bytes refusal", err)
	}

	d := decoder{buf: []byte{7}}
	if d.bool(); d.err == nil {
		t.Error("bool byte 0x07 accepted")
	}
}

// seedBinary builds a single-shard binary store holding n records and
// returns its dir. Single shard so every frame lands in seg-00.bin and
// tail corruption is deterministic.
func seedBinary(t *testing.T, n int) string {
	t.Helper()
	dir := t.TempDir()
	st, err := OpenBinary(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords(n)
	for i := range recs {
		recs[i].Annotations = []annotate.Annotation{{Aspect: "types", Category: "pii", Text: "t", Line: i}}
		if err := st.Append(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// frameOffsets walks a segment file and returns each frame's offset.
func frameOffsets(t *testing.T, path string) []int64 {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var offs []int64
	off := int64(0)
	for off < int64(len(data)) {
		offs = append(offs, off)
		plen := int64(binary.LittleEndian.Uint32(data[off:]))
		off += frameOverhead + plen
	}
	if off != int64(len(data)) {
		t.Fatalf("segment %s does not tile into frames", path)
	}
	return offs
}

func TestBinaryGetPointLookup(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenBinary(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	recs := testRecords(30)
	for i := range recs {
		recs[i].Tickers = []string{"TK" + recs[i].SectorAbbrev}
		if err := st.Append(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i := range recs {
		got, ok, err := st.Get(recs[i].Domain)
		if err != nil || !ok {
			t.Fatalf("Get(%s) = ok=%v err=%v", recs[i].Domain, ok, err)
		}
		want, _ := json.Marshal(&recs[i])
		have, _ := json.Marshal(got)
		if string(want) != string(have) {
			t.Fatalf("Get(%s):\n want %s\n have %s", recs[i].Domain, want, have)
		}
	}
	if _, ok, err := st.Get("absent.example.com"); ok || err != nil {
		t.Fatalf("Get(absent) = ok=%v err=%v, want miss", ok, err)
	}
}

// TestBinaryReopenRecovery exercises the sidecar-as-cache contract:
// reopening with the sidecar intact, deleted, or half-truncated must
// all recover the full record set (the segment is the truth), and the
// sidecar must be rewritten so the next open is clean.
func TestBinaryReopenRecovery(t *testing.T) {
	const n = 12
	for _, damage := range []string{"intact", "deleted", "halved"} {
		t.Run(damage, func(t *testing.T) {
			dir := seedBinary(t, n)
			idx := filepath.Join(dir, "seg-00.idx")
			switch damage {
			case "deleted":
				if err := os.Remove(idx); err != nil {
					t.Fatal(err)
				}
			case "halved":
				data, err := os.ReadFile(idx)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(idx, data[:len(data)/2], 0o644); err != nil {
					t.Fatal(err)
				}
			}
			st, err := OpenBinary(dir, 1)
			if err != nil {
				t.Fatalf("reopen with %s sidecar: %v", damage, err)
			}
			if got, _ := st.Len(); got != n {
				t.Fatalf("Len after %s sidecar = %d, want %d", damage, got, n)
			}
			if _, ok, err := st.Get("company-007.com"); !ok || err != nil {
				t.Fatalf("Get after %s sidecar: ok=%v err=%v", damage, ok, err)
			}
			st.Close()
			// The rewritten sidecar must make the next open clean too.
			st, err = OpenBinary(dir, 1)
			if err != nil {
				t.Fatalf("second reopen: %v", err)
			}
			if got, _ := st.Len(); got != n {
				t.Fatalf("Len after second reopen = %d, want %d", got, n)
			}
			st.Close()
		})
	}
}

// TestBinaryRecoversFrameMissedBySidecar simulates a crash between the
// segment append and the sidecar append: a valid frame the sidecar does
// not cover must be recovered on reopen.
func TestBinaryRecoversFrameMissedBySidecar(t *testing.T) {
	const n = 5
	dir := seedBinary(t, n)
	extra := Record{Domain: "late.example.com", Company: "Late"}
	payload := appendRecord(nil, &extra)
	frame := make([]byte, 4, 4+len(payload)+4)
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	frame = append(frame, payload...)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(payload))
	frame = append(frame, crc[:]...)
	f, err := os.OpenFile(filepath.Join(dir, "seg-00.bin"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frame); err != nil {
		t.Fatal(err)
	}
	f.Close()

	st, err := OpenBinary(dir, 1)
	if err != nil {
		t.Fatalf("reopen after crash-between-appends: %v", err)
	}
	defer st.Close()
	if got, _ := st.Len(); got != n+1 {
		t.Fatalf("Len = %d, want %d", got, n+1)
	}
	if rec, ok, err := st.Get("late.example.com"); !ok || err != nil || rec.Company != "Late" {
		t.Fatalf("recovered frame not indexed: %+v ok=%v err=%v", rec, ok, err)
	}
}

// TestBinaryCorruptionRefusedThenRepaired injects each corruption class
// the format defends against — torn final frame, implausible length
// prefix, garbage tail, flipped payload byte — and checks that the open
// (or scan) refuses with ErrTruncated and that Repair truncates back to
// the last good record so the store reopens cleanly.
func TestBinaryCorruptionRefusedThenRepaired(t *testing.T) {
	const n = 8
	cases := []struct {
		name    string
		corrupt func(t *testing.T, bin string, offs []int64)
		wantLen int // records surviving repair
	}{
		{
			name: "torn-final-frame",
			corrupt: func(t *testing.T, bin string, offs []int64) {
				st, _ := os.Stat(bin)
				if err := os.Truncate(bin, st.Size()-3); err != nil {
					t.Fatal(err)
				}
			},
			wantLen: n - 1,
		},
		{
			name: "bad-length-prefix",
			corrupt: func(t *testing.T, bin string, offs []int64) {
				f, err := os.OpenFile(bin, os.O_WRONLY, 0o644)
				if err != nil {
					t.Fatal(err)
				}
				defer f.Close()
				// An implausible (> maxFramePayload) declared length.
				if _, err := f.WriteAt([]byte{0xff, 0xff, 0xff, 0x7f}, offs[len(offs)-1]); err != nil {
					t.Fatal(err)
				}
			},
			wantLen: n - 1,
		},
		{
			name: "garbage-tail",
			corrupt: func(t *testing.T, bin string, offs []int64) {
				f, err := os.OpenFile(bin, os.O_WRONLY|os.O_APPEND, 0o644)
				if err != nil {
					t.Fatal(err)
				}
				defer f.Close()
				if _, err := f.Write([]byte("this is not a frame, not even close........")); err != nil {
					t.Fatal(err)
				}
			},
			wantLen: n,
		},
		{
			name: "flipped-payload-byte",
			corrupt: func(t *testing.T, bin string, offs []int64) {
				f, err := os.OpenFile(bin, os.O_RDWR, 0o644)
				if err != nil {
					t.Fatal(err)
				}
				defer f.Close()
				off := offs[len(offs)-1] + 9 // a byte inside the final payload
				b := make([]byte, 1)
				if _, err := f.ReadAt(b, off); err != nil {
					t.Fatal(err)
				}
				b[0] ^= 0x40
				if _, err := f.WriteAt(b, off); err != nil {
					t.Fatal(err)
				}
			},
			wantLen: n - 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := seedBinary(t, n)
			bin := filepath.Join(dir, "seg-00.bin")
			tc.corrupt(t, bin, frameOffsets(t, bin))
			// Force a full frame scan: the sidecar is a cache and a
			// same-size payload corruption would otherwise hide behind it
			// until Scan.
			if err := os.Remove(filepath.Join(dir, "seg-00.idx")); err != nil {
				t.Fatal(err)
			}

			_, err := OpenBinary(dir, 1)
			if !errors.Is(err, ErrTruncated) {
				t.Fatalf("open of corrupt store: err = %v, want ErrTruncated", err)
			}
			if !strings.Contains(err.Error(), "repair") {
				t.Errorf("refusal does not point at repair: %v", err)
			}

			dropped, err := Repair("binary:1", dir)
			if err != nil {
				t.Fatalf("Repair: %v", err)
			}
			if dropped <= 0 {
				t.Fatalf("Repair dropped %d bytes, want > 0", dropped)
			}
			st, err := OpenBinary(dir, 1)
			if err != nil {
				t.Fatalf("reopen after repair: %v", err)
			}
			defer st.Close()
			if got, _ := st.Len(); got != tc.wantLen {
				t.Fatalf("Len after repair = %d, want %d", got, tc.wantLen)
			}
			// Every surviving record still decodes.
			if err := st.Scan(func(*Record) error { return nil }); err != nil {
				t.Fatalf("Scan after repair: %v", err)
			}
		})
	}
}

// TestBinaryScanRefusesCorruptionBehindSidecar: a payload corruption
// that leaves the file size unchanged is invisible to the sidecar
// fast-path open, but Scan validates every frame's CRC and must refuse.
func TestBinaryScanRefusesCorruptionBehindSidecar(t *testing.T) {
	dir := seedBinary(t, 6)
	bin := filepath.Join(dir, "seg-00.bin")
	offs := frameOffsets(t, bin)
	f, err := os.OpenFile(bin, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 1)
	off := offs[len(offs)-1] + 9
	if _, err := f.ReadAt(b, off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x01
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
	f.Close()

	st, err := OpenBinary(dir, 1)
	if err != nil {
		t.Fatalf("sidecar fast-path open: %v", err)
	}
	defer st.Close()
	if err := st.Scan(func(*Record) error { return nil }); !errors.Is(err, ErrTruncated) {
		t.Fatalf("Scan over corrupt frame: err = %v, want ErrTruncated", err)
	}
}

func TestBinaryRefusesMismatchedReopen(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenBinary(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SetMeta(Meta{Seed: 9}); err != nil {
		t.Fatal(err)
	}
	st.Close()
	if _, err := OpenBinary(dir, 8); err == nil || !strings.Contains(err.Error(), "shards") {
		t.Fatalf("reopening 4-shard binary store with 8 shards: err = %v, want refusal", err)
	}
}

// TestBinaryRefusesRetiredShardedDir: a directory written by the
// retired sharded:N JSONL layout (meta.json without a format, records
// in shard-%02d.jsonl) must be refused by name, not opened as an empty
// binary store — a --resume over it would silently redo every domain —
// and its stamp must survive the refusal.
func TestBinaryRefusesRetiredShardedDir(t *testing.T) {
	dir := t.TempDir()
	if err := writeMetaFile(filepath.Join(dir, "meta.json"), Meta{Seed: 3000, Shards: 4}); err != nil {
		t.Fatal(err)
	}
	old, err := OpenJSONL(filepath.Join(dir, "shard-00.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords(10)
	for i := range recs {
		if err := old.Append(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	old.Close()
	stamp, err := os.ReadFile(filepath.Join(dir, "meta.json"))
	if err != nil {
		t.Fatal(err)
	}

	for name, open := range map[string]func() (Store, error){
		"OpenBinary": func() (Store, error) { return OpenBinary(dir, 4) },
		"OpenSpec":   func() (Store, error) { return OpenSpec("binary:4", dir) },
	} {
		if st, err := open(); err == nil {
			n, _ := st.Len()
			st.Close()
			t.Fatalf("%s opened a sharded JSONL directory as a binary store holding %d records", name, n)
		} else if !strings.Contains(err.Error(), "binary:4") {
			t.Fatalf("%s refusal %q does not name binary:4", name, err)
		}
	}
	after, err := os.ReadFile(filepath.Join(dir, "meta.json"))
	if err != nil || string(after) != string(stamp) {
		t.Fatalf("refused open rewrote the stamp: %s -> %s (err %v)", stamp, after, err)
	}
}

// TestJSONLTruncatedFinalRecordRefusal: a half-written final line (the
// crash-mid-append signature) must scan as ErrTruncated; mid-file
// corruption with intact records behind it is reported plainly. Repair
// truncates the torn tail so the checkpoint resumes.
func TestJSONLTruncatedFinalRecordRefusal(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ck.jsonl")
	st, err := OpenJSONL(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords(3)
	for i := range recs {
		if err := st.Append(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()
	torn := []byte(`{"domain":"torn.example.com","compa`)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	st, err = OpenJSONL(path)
	if err != nil {
		t.Fatal(err)
	}
	scanErr := st.Scan(func(*Record) error { return nil })
	st.Close()
	if !errors.Is(scanErr, ErrTruncated) {
		t.Fatalf("scan over torn tail: err = %v, want ErrTruncated", scanErr)
	}

	dropped, err := Repair("jsonl", path)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != int64(len(torn)) {
		t.Fatalf("Repair dropped %d bytes, want %d", dropped, len(torn))
	}
	st, err = OpenJSONL(path)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := st.Scan(func(*Record) error { n++; return nil }); err != nil || n != 3 {
		t.Fatalf("after repair: scanned %d records, err = %v; want 3, nil", n, err)
	}
	st.Close()

	// Mid-file corruption (good records after the bad line) is not the
	// truncation signature and must not match ErrTruncated.
	mid := filepath.Join(dir, "mid.jsonl")
	var buf strings.Builder
	enc := json.NewEncoder(&buf)
	_ = enc.Encode(&recs[0])
	buf.WriteString("{{{ not json\n")
	_ = enc.Encode(&recs[1])
	if err := os.WriteFile(mid, []byte(buf.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	ms, err := OpenJSONL(mid)
	if err != nil {
		t.Fatal(err)
	}
	midErr := ms.Scan(func(*Record) error { return nil })
	ms.Close()
	if midErr == nil || errors.Is(midErr, ErrTruncated) {
		t.Fatalf("mid-file corruption: err = %v, want plain (non-truncation) error", midErr)
	}
}

// TestEventDirTruncatedTailRefusedAndRepaired is the event log's crash
// matrix: a shard cut at every byte inside its last frame — every torn
// final append — must scan as ErrTruncated, and RepairEventDir must cut
// it back to the previous frame boundary, after which Scan returns
// exactly the events before the torn one.
func TestEventDirTruncatedTailRefusedAndRepaired(t *testing.T) {
	dir := t.TempDir()
	log, err := OpenEventLog(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	domains := []string{"a.example.com", "b.example.com", "c.example.com", "d.example.com", "e.example.com"}
	for i, d := range domains {
		if err := log.Append(&Event{RunID: "run", Seq: i, Domain: d, Outcome: OutcomeAnnotated,
			StageMillis: map[string]int64{"crawl": int64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	// The torn shard is the one holding the most events, so the events
	// before its last frame include some of its own.
	counts := make([]int, 2)
	for _, d := range domains {
		counts[log.shardOf(d)]++
	}
	shard := 0
	if counts[1] > counts[0] {
		shard = 1
	}
	path := log.shardPath(shard)
	log.Close()

	scanAll := func() ([]string, error) {
		l, err := OpenEventDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		var got []string
		err = l.Scan(func(ev *Event) error {
			b, _ := json.Marshal(ev)
			got = append(got, string(b))
			return nil
		})
		return got, err
	}
	intact, err := scanAll()
	if err != nil || len(intact) != len(domains) {
		t.Fatalf("intact scan: %d events, err = %v", len(intact), err)
	}
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	offs := frameOffsets(t, path)
	last := offs[len(offs)-1]
	// Scan order is shard-major, so the torn shard's last event sits at
	// a known position in the intact scan.
	lastIdx := len(offs) - 1
	if shard == 1 {
		lastIdx = len(intact) - 1
	}
	want := append(append([]string{}, intact[:lastIdx]...), intact[lastIdx+1:]...)

	for cut := last + 1; cut < int64(len(orig)); cut++ {
		if err := os.WriteFile(path, orig[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := scanAll(); !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut at %d: scan err = %v, want ErrTruncated", cut, err)
		}
		dropped, err := RepairEventDir(dir)
		if err != nil {
			t.Fatalf("cut at %d: RepairEventDir: %v", cut, err)
		}
		if dropped != cut-last {
			t.Fatalf("cut at %d: RepairEventDir dropped %d bytes, want %d", cut, dropped, cut-last)
		}
		got, err := scanAll()
		if err != nil {
			t.Fatalf("cut at %d: scan after repair: %v", cut, err)
		}
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("cut at %d: after repair scanned\n%s\nwant\n%s", cut, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	}
}

// TestExportCSVMatchesWrite: the streaming CSV exports over a store
// must produce byte-identical files to the slice-based writers over the
// same records sorted by domain.
func TestExportCSVMatchesWrite(t *testing.T) {
	dir := t.TempDir()
	recs := testRecords(20)
	for i := range recs {
		recs[i].Tickers = []string{fmt.Sprintf("T%02d", i)}
		recs[i].Annotations = []annotate.Annotation{
			{Aspect: "types", Category: "pii", Descriptor: "email", Text: "we collect email", Line: i + 1, Scope: "first-party"},
			{Aspect: "retention", Category: "period", Text: "kept 30 days", Line: i + 2, RetentionDays: 30, Novel: i%2 == 0},
		}
	}
	st, err := OpenBinary(filepath.Join(dir, "bins"), 3)
	if err != nil {
		t.Fatal(err)
	}
	// Append in reverse so the export's sort is doing the work.
	for i := len(recs) - 1; i >= 0; i-- {
		if err := st.Append(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	defer st.Close()

	// testRecords domains are already in sorted order.
	for _, c := range []struct {
		name   string
		export func(string, Store) error
		write  func(string, []Record) error
	}{
		{"annotations", ExportAnnotationsCSV, WriteAnnotationsCSV},
		{"domains", ExportDomainsCSV, WriteDomainsCSV},
	} {
		wantPath := filepath.Join(dir, c.name+"-want.csv")
		gotPath := filepath.Join(dir, c.name+"-got.csv")
		if err := c.write(wantPath, recs); err != nil {
			t.Fatal(err)
		}
		if err := c.export(gotPath, st); err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(wantPath)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(gotPath)
		if err != nil {
			t.Fatal(err)
		}
		if string(want) != string(got) {
			t.Errorf("%s CSV: streaming export differs from slice writer", c.name)
		}
	}
}
