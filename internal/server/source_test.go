package server

import (
	"context"
	"net/http/httptest"
	"testing"

	"aipan/internal/obs"
	"aipan/internal/store"
)

// countingShardView wraps a store and counts per-shard scans, so tests
// can assert Refresh skips shards whose stamp did not move.
type countingShardView struct {
	store.Store
	sv    store.ShardView
	scans map[int]int
}

func (c *countingShardView) NumShards() int { return c.sv.NumShards() }
func (c *countingShardView) ShardStamp(i int) (string, error) {
	return c.sv.ShardStamp(i)
}
func (c *countingShardView) ScanShard(i int, fn func(*store.Record) error) error {
	c.scans[i]++
	return c.sv.ScanShard(i, fn)
}

// TestRefreshSkipsUnchangedShards appends to one shard of a binary
// store between refreshes and checks that only that shard is re-scanned
// — the incremental-refresh contract of FromStore over a ShardView.
func TestRefreshSkipsUnchangedShards(t *testing.T) {
	st, err := store.OpenBinary(t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords()
	for i := range recs {
		if err := st.Append(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	cv := &countingShardView{Store: st, sv: st, scans: map[int]int{}}
	s, err := NewServer(FromStore(cv), WithRegistry(obs.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if cv.scans[i] != 1 {
			t.Fatalf("initial load scanned shard %d %d times, want 1", i, cv.scans[i])
		}
	}

	// A refresh with nothing appended re-scans nothing.
	if err := s.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if cv.scans[i] != 1 {
			t.Errorf("idle refresh re-scanned shard %d (%d scans)", i, cv.scans[i])
		}
	}

	// Appending one record dirties exactly its shard.
	extra := store.Record{Domain: "zeta.example.com", Company: "Zeta", Sector: "Energy", SectorAbbrev: "EN"}
	if err := st.Append(&extra); err != nil {
		t.Fatal(err)
	}
	if err := s.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	rescanned := 0
	for i := 0; i < 4; i++ {
		rescanned += cv.scans[i] - 1
	}
	if rescanned != 1 {
		t.Errorf("refresh after one append re-scanned %d shards, want 1", rescanned)
	}

	// The refreshed view serves the appended record.
	srv := httptest.NewServer(s)
	defer srv.Close()
	if status, body := get(t, srv.URL+"/v1/domains/zeta.example.com"); status != 200 {
		t.Errorf("appended record not served: status %d body %s", status, body)
	}
}
