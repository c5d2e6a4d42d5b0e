package core

import (
	"context"
	"reflect"
	"testing"

	"aipan/internal/store"
)

func TestStudyForMatchesPipelineDomains(t *testing.T) {
	p, err := New(Config{Limit: 12})
	if err != nil {
		t.Fatal(err)
	}
	study := StudyFor(0, 0, 12)
	if len(study.Domains) != 12 {
		t.Fatalf("StudyFor returned %d domains, want 12", len(study.Domains))
	}
	var want []string
	for _, d := range p.Domains()[:12] {
		want = append(want, d.Domain)
	}
	if !reflect.DeepEqual(study.Domains, want) {
		t.Fatalf("study list diverges from pipeline domains:\n%v\n%v", study.Domains, want)
	}
	if study.Companies == 0 {
		t.Fatalf("study reports zero companies")
	}
}

// TestDomainFilterPartition runs two pipelines whose filters split the
// study list by shard hash and checks their stores union to exactly the
// unfiltered run's records — the property the distributed dispatcher
// leans on.
func TestDomainFilterPartition(t *testing.T) {
	const limit = 10
	runWith := func(filter func(string) bool) map[string]bool {
		t.Helper()
		st := store.NewMem()
		p, err := New(Config{Limit: limit, Store: st, DomainFilter: filter})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		got := map[string]bool{}
		if err := st.Scan(func(r *store.Record) error {
			got[r.Domain] = true
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return got
	}

	all := runWith(nil)
	if len(all) != limit {
		t.Fatalf("unfiltered run stored %d records, want %d", len(all), limit)
	}
	even := runWith(func(d string) bool { return store.ShardOf(d, 2) == 0 })
	odd := runWith(func(d string) bool { return store.ShardOf(d, 2) == 1 })
	if len(even)+len(odd) != limit {
		t.Fatalf("partition sizes %d + %d != %d", len(even), len(odd), limit)
	}
	for d := range even {
		if odd[d] {
			t.Fatalf("domain %s in both partitions", d)
		}
		delete(all, d)
	}
	for d := range odd {
		delete(all, d)
	}
	if len(all) != 0 {
		t.Fatalf("domains missing from the partitioned runs: %v", all)
	}
}

func TestFoldFunnelMatchesPipelineFunnel(t *testing.T) {
	st := store.NewMem()
	p, err := New(Config{Limit: 8, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	study := StudyFor(0, 0, 8)
	cells := make([]FunnelCell, len(study.Domains))
	byDomain := map[string]int{}
	for i, d := range study.Domains {
		byDomain[d] = i
	}
	if err := st.Scan(func(r *store.Record) error {
		cells[byDomain[r.Domain]] = CellOf(r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	folded := FoldFunnel(study.Companies, study.Corrected, cells)
	if !reflect.DeepEqual(folded, res.Funnel) {
		t.Fatalf("FoldFunnel diverges from the pipeline funnel:\n%+v\n%+v", folded, res.Funnel)
	}
}
