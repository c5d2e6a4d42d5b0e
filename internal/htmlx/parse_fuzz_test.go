package htmlx

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"aipan/internal/russell"
	"aipan/internal/webgen"
)

// hostileShapes are inputs that drive a top-down stack scan quadratic:
// block starts above a deep stack of inline elements, and end tags with
// no matching open element above a deep stack — of one name, or of
// distinct names, more than a page holds open at once.
var hostileShapes = []struct {
	name  string
	build func(n int) string
}{
	{"span-open+div-pairs", func(n int) string {
		return strings.Repeat("<span>", n) + strings.Repeat("<div></div>", n)
	}},
	{"span-open+stray-div-end", func(n int) string {
		return strings.Repeat("<span>", n) + strings.Repeat("</div>", n)
	}},
	{"div-open+unknown-end", func(n int) string {
		return strings.Repeat("<div>", n) + strings.Repeat("</x>", n)
	}},
	{"distinct-open+unknown-end", func(n int) string {
		var b strings.Builder
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, "<e%d>", i)
		}
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, "</e%d></x>", n-1-i)
		}
		return b.String()
	}},
}

// corpusPages returns every non-empty page body of n sites of the
// seed-3000 corpus, taking every step-th domain in sorted order.
func corpusPages(tb testing.TB, step, n int) []string {
	tb.Helper()
	g := webgen.New(webgen.Seed, russell.UniqueDomains(russell.Universe(webgen.Seed)))
	domains := g.Domains()
	var out []string
	for i := 0; i < n && i*step < len(domains); i++ {
		pages := g.RenderSite(domains[i*step])
		paths := make([]string, 0, len(pages))
		for p := range pages {
			paths = append(paths, p)
		}
		sort.Strings(paths)
		for _, p := range paths {
			if b := pages[p].Body; b != "" {
				out = append(out, b)
			}
		}
	}
	if len(out) == 0 {
		tb.Fatal("the corpus rendered no pages")
	}
	return out
}

// treeDiff reports the first difference between two trees in node type,
// data, attributes or shape, or "" when they are equal. It walks
// iteratively, so a deep hostile tree cannot overflow it.
func treeDiff(got, want *Node) string {
	type pair struct {
		a, b *Node
		path string
	}
	work := []pair{{got, want, "/"}}
	for len(work) > 0 {
		p := work[len(work)-1]
		work = work[:len(work)-1]
		a, b := p.a, p.b
		if a.Type != b.Type || a.Data != b.Data {
			return fmt.Sprintf("%s: node (%d %q), want (%d %q)", p.path, a.Type, a.Data, b.Type, b.Data)
		}
		if len(a.Attr) != len(b.Attr) {
			return fmt.Sprintf("%s: %d attributes, want %d", p.path, len(a.Attr), len(b.Attr))
		}
		for i := range a.Attr {
			if a.Attr[i] != b.Attr[i] {
				return fmt.Sprintf("%s: attribute %d %+v, want %+v", p.path, i, a.Attr[i], b.Attr[i])
			}
		}
		ca, cb, i := a.FirstChild, b.FirstChild, 0
		for ; ca != nil && cb != nil; ca, cb, i = ca.NextSibling, cb.NextSibling, i+1 {
			if ca.Parent != a {
				return fmt.Sprintf("%s: child %d has the wrong parent", p.path, i)
			}
			work = append(work, pair{ca, cb, fmt.Sprintf("%s%d/", p.path, i)})
		}
		if ca != nil || cb != nil {
			return fmt.Sprintf("%s: child count differs from the reference after %d", p.path, i)
		}
	}
	return ""
}

// FuzzParse: on any input, Parse builds the reference parser's tree.
func FuzzParse(f *testing.F) {
	for _, page := range corpusPages(f, 577, 5) {
		f.Add(page)
	}
	for _, sh := range hostileShapes {
		f.Add(sh.build(5))
		f.Add(sh.build(20))
	}
	for _, s := range []string{
		"<p><div>x</div>",
		"<p>a<span>b<div>c</div></span>d",
		"<div><p>a</div>b</p>c",
		"<li>a<li>b<li>c",
		"<ul><li>a<ul><li>b</ul><li>c</ul>",
		"</p>",
		"a</p>b<p>c</p></p>",
		"<table><tr><td>a<td>b<tr><td>c",
		"<table><tbody><tr><th>h</table>",
		"<p><p><p>",
		"<b><i></b></i>",
		"<dl><dt>a<dd>b<dt>c",
		"<select><optgroup><option>a<option>b<optgroup><option>c",
		"<hr><p>a<hr>b",
		"<br></br><img/>",
		"<>x</>",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if d := treeDiff(Parse(src), parseReference(src)); d != "" {
			t.Fatalf("Parse(%q) differs from the reference: %s", src, d)
		}
	})
}

// TestParseHostileInputLinear: the shapes that walked the whole stack on
// every tag parse 40,000-deep in well under a second, and agree with the
// reference at a size it can still afford.
func TestParseHostileInputLinear(t *testing.T) {
	for _, sh := range hostileShapes {
		if d := treeDiff(Parse(sh.build(500)), parseReference(sh.build(500))); d != "" {
			t.Fatalf("%s: Parse differs from the reference: %s", sh.name, d)
		}
		src := sh.build(40_000)
		start := time.Now()
		Parse(src)
		if el := time.Since(start); el > time.Second {
			t.Errorf("%s: %d bytes parsed in %v, want under 1s", sh.name, len(src), el)
		}
	}
}

// BenchmarkParseCorpus parses every page of the seed-3000 corpus's first
// 200 sites per op: the per-page cost Parse adds to a crawl.
func BenchmarkParseCorpus(b *testing.B) {
	pages := corpusPages(b, 1, 200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range pages {
			Parse(p)
		}
	}
}
