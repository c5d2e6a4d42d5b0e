package webgen

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"testing"

	"aipan/internal/russell"
)

// corpusDigest hashes, in Domains() order, each site's failure class,
// layout and ground truth, then every page RenderSite serves for it,
// sorted by path: status, content type, redirect, hang flag and body.
func corpusDigest(g *Generator) string {
	h := sha256.New()
	for _, d := range g.Domains() {
		s := g.Site(d)
		fmt.Fprintf(h, "%s\x00%q\x00%+v\x00%+v\x00", d, s.Failure, s.Layout, s.Truth)
		pages := g.RenderSite(d)
		paths := make([]string, 0, len(pages))
		for p := range pages {
			paths = append(paths, p)
		}
		sort.Strings(paths)
		for _, p := range paths {
			pg := pages[p]
			fmt.Fprintf(h, "%s\x00%d\x00%s\x00%s\x00%t\x00%d\x00", p, pg.Status, pg.ContentType, pg.RedirectTo, pg.Hang, len(pg.Body))
			h.Write([]byte(pg.Body))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestCorpusDigests pins the generated web's bytes on the paper roster
// and on a 4,000-domain roster: a change to sampling, failure planning,
// the retention pins or rendering fails here.
func TestCorpusDigests(t *testing.T) {
	for _, tc := range []struct {
		name string
		gen  *Generator
		want string
	}{
		{"paper roster, seed 3000", New(Seed, russell.UniqueDomains(russell.Universe(Seed))), "69de0be0a44cea7a7b9b53e51ff05a40e67315bf98b38ca54f9b4307accb1e0b"},
		{"4,000-domain roster, seed 3000", New(Seed, russell.UniqueDomains(russell.UniverseSized(Seed, 4000))), "f3f4649a1910544f14bc68e193ebd0dc66e4b8552130470b9629a1fbb47a4ef2"},
	} {
		if got := corpusDigest(tc.gen); got != tc.want {
			t.Errorf("%s digest = %s, want %s", tc.name, got, tc.want)
		}
	}
}
