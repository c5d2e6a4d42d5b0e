package chatbot

import (
	"context"
	"math"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"aipan/internal/russell"
	"aipan/internal/taxonomy"
	"aipan/internal/textify"
	"aipan/internal/webgen"
)

func TestStripJSON(t *testing.T) {
	cases := []struct{ in, want string }{
		{`[[1, ["types"]]]`, `[[1, ["types"]]]`},
		{"```json\n[[1, \"x\"]]\n```", `[[1, "x"]]`},
		{"Here is the output:\n[[1, \"x\"]]", `[[1, "x"]]`},
		{"```\n{\"a\":1}\n```", `{"a":1}`},
	}
	for _, c := range cases {
		if got := StripJSON(c.in); got != c.want {
			t.Errorf("StripJSON(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestParseLineLabelsRoundTrip(t *testing.T) {
	in := []LineLabels{
		{Line: 1, Labels: []string{"types"}},
		{Line: 5, Labels: []string{"purposes", "handling"}},
	}
	got, err := ParseLineLabels(EncodeLineLabels(in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, in) {
		t.Errorf("round trip: %+v != %+v", got, in)
	}
}

func TestParseLineLabelsBareString(t *testing.T) {
	got, err := ParseLineLabels(`[[3, "types"]]`)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Line != 3 || got[0].Labels[0] != "types" {
		t.Errorf("got %+v", got)
	}
}

func TestParseLineLabelsErrors(t *testing.T) {
	for _, bad := range []string{`not json`, `[[1]]`, `[["x", ["a"]]]`, `[[1, 2, 3]]`} {
		if _, err := ParseLineLabels(bad); err == nil {
			t.Errorf("ParseLineLabels(%q) should fail", bad)
		}
	}
}

func TestParseExtractionsRoundTrip(t *testing.T) {
	in := []Extraction{{Line: 4, Text: "email address"}, {Line: 9, Text: "gps location"}}
	got, err := ParseExtractions(EncodeExtractions(in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, in) {
		t.Errorf("round trip: %+v != %+v", got, in)
	}
}

func TestParseExtractionsErrors(t *testing.T) {
	for _, bad := range []string{`{}`, `[[1]]`, `[[1, 2]]`, `[["a","b"]]`} {
		if _, err := ParseExtractions(bad); err == nil {
			t.Errorf("ParseExtractions(%q) should fail", bad)
		}
	}
}

func TestParseNormalizationsRoundTrip(t *testing.T) {
	in := []Normalization{{Surface: "mailing address", Meta: "Physical profile", Category: "Contact info", Descriptor: "postal address"}}
	got, err := ParseNormalizations(EncodeNormalizations(in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, in) {
		t.Errorf("round trip: %+v != %+v", got, in)
	}
}

func TestParseLabeledMentionsRoundTrip(t *testing.T) {
	in := []LabeledMention{{Line: 3, Group: "Data retention", Label: "Stated", Text: "six (6) years"}}
	got, err := ParseLabeledMentions(EncodeLabeledMentions(in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, in) {
		t.Errorf("round trip: %+v != %+v", got, in)
	}
}

func TestParseLabeledMentionsErrors(t *testing.T) {
	for _, bad := range []string{`[[1, "a", "b"]]`, `[["x","a","b","c"]]`} {
		if _, err := ParseLabeledMentions(bad); err == nil {
			t.Errorf("ParseLabeledMentions(%q) should fail", bad)
		}
	}
}

func TestEmptyEncodings(t *testing.T) {
	if got := EncodeExtractions(nil); got != "[]" {
		t.Errorf("empty extractions = %q", got)
	}
	es, err := ParseExtractions("[]")
	if err != nil || len(es) != 0 {
		t.Errorf("parse empty: %v %v", es, err)
	}
}

// simAnswers returns the simulated chatbot's answers to every task on the
// privacy pages of the first n webgen sites, from a faithful and a weak
// profile (the weak one widens spans and extracts vendor names).
func simAnswers(tb testing.TB, n int) []string {
	tb.Helper()
	g := webgen.New(webgen.Seed, russell.UniqueDomains(russell.Universe(webgen.Seed)))
	bots := []*Sim{NewSim(GPT4Profile()), NewSim(GPT35Profile())}
	var answers []string
	ask := func(bot *Sim, req Request) string {
		resp, err := bot.Complete(context.Background(), req)
		if err != nil {
			tb.Fatal(err)
		}
		answers = append(answers, resp.Content)
		return resp.Content
	}
	mentions := func(answer string) []string {
		es, err := refParseExtractions(answer)
		if err != nil {
			tb.Fatal(err)
		}
		var out []string
		for _, e := range es {
			out = append(out, e.Text)
		}
		return out
	}
	for _, s := range g.Sites()[:n] {
		pages := g.RenderSite(s.Domain)
		var paths []string
		for path := range pages {
			paths = append(paths, path)
		}
		sort.Strings(paths)
		for _, path := range paths {
			p := pages[path]
			if !strings.Contains(path, "privacy") || p.RedirectTo != "" || p.Body == "" {
				continue
			}
			text := textify.RenderHTML(p.Body).NumberedText()
			for _, bot := range bots {
				ask(bot, HeadingLabelsRequest(text))
				ask(bot, SegmentTextRequest(text))
				ask(bot, NormalizeTypesRequest(mentions(ask(bot, ExtractTypesRequest(text, 3))), 3))
				ask(bot, NormalizePurposesRequest(mentions(ask(bot, ExtractPurposesRequest(text, 3))), 3))
				ask(bot, HandlingLabelsRequest(text))
				ask(bot, RightsLabelsRequest(text))
			}
		}
	}
	if len(answers) == 0 {
		tb.Fatal("webgen rendered no privacy pages")
	}
	return answers
}

// edgeAnswers are hand-built answers at every rule of the reader: the
// whitespace set and trailing bytes, the outer value and null tuples,
// tuple lengths with surplus elements of every JSON kind and nesting
// depth, integer literals at and past the int64 range, string escapes,
// surrogates and invalid UTF-8, label lists, and fences and prose.
var edgeAnswers = []string{
	"", " ", "null", " null ", "nul", "nulls", "[]", "[ \t\r\n]", "[\v]", "[\f]",
	"[]\x00", "[] \x00", "null\x00", "[] []", "[],", "[", "]", "{}", `"x"`, "1", "true",
	"[null]", "[[]]", "[1]", `["a"]`, "[{}]", "[true]", "[[1,\"a\"],]", "[[1,\"a\"] [2,\"b\"]]",
	"[[1,\"a\"]]\x00", "[[1,\"a\"]]x", "[[1,\"a\"]", "[[1,\"a\"",
	"```json\n[[1, \"x\"]]\n```", "Here is the output:\n[[1, \"x\"]]", "```\n[]\n```", "prose only",
	`[[1]]`, `[[1,"a","b"]]`, `[[1,"a",null]]`, `[[1,"a",[[[[]]]]]]`, `[[1,"a",{"k":[1,2,{"z":null}],"y":true}]]`,
	`[[1,"a",{"k" 1}]]`, `[[1,"a",{1:2}]]`, `[[1,"a",{"k":1,}]]`, `[[1,"a",tru]]`, `[[1,"a",-]]`, `[[1,"a",]]`,
	`[[1.0,"a"]]`, `[[1e2,"a"]]`, `[[1E+2,"a"]]`, `[[-0,"a"]]`, `[[0,"a"]]`, `[[01,"a"]]`, `[[-,"a"]]`,
	`[[1.,"a"]]`, `[[.5,"a"]]`, `[[1e,"a"]]`, `[[+1,"a"]]`, `[[-01,"a"]]`, `[[1.5.3,"a"]]`,
	`[[9223372036854775807,"a"]]`, `[[9223372036854775808,"a"]]`,
	`[[-9223372036854775808,"a"]]`, `[[-9223372036854775809,"a"]]`,
	`[["1","a"]]`, `[[null,"a"]]`, `[[true,"a"]]`, `[[[],"a"]]`, `[[{},"a"]]`,
	`[[1,null]]`, `[[1,"\"\\\/\b\f\n\r\t"]]`, `[[1,"\u00e9\ud83d\ude00"]]`, `[[1,"\ud800"]]`,
	`[[1,"\udc00\ud800x"]]`, `[[1,"\ud800\u0041"]]`, `[[1,"\ud800\ud800\udc00"]]`, `[[1,"\ud800\"]]`,
	`[[1,"\u0000"]]`, `[[1,"\x"]]`, `[[1,"\u12"]]`, `[[1,"\u12G4"]]`, `[[1,"\'"]]`, `[[1,"a\"]]`,
	`[[1,"unterminated]]`, `[[1,"<>&"]]`, `[[1,"\u2028\u2029"]]`, `[[1,"\\"]]`,
	"[[1,\"\xff\xfe\"]]", "[[1,\"a\x01b\"]]", "[[1,\"\xed\xa0\x80\"]]", "[[1,\"\x7f\"]]", "[[1,\"a\tb\"]]",
	"[[1,\"\xe2\x80\"]]", "[[1,\"\\u0041\xff\"]]",
	`[[1,["a",null]]]`, `[[1,[]]]`, `[[1,[ ]]]`, `[[1,"types"]]`, `[[1,[1]]]`, `[[1,[[]]]]`, `[[1,{}]]`,
	`[[1,true]]`, `[[1,["a",]]]`, `[[1,[,"a"]]]`, `[[1,[null]]]`, `[[1, [ "a" , "b" ] ]]`, `[[1,["a" "b"]]]`,
	`[[null,null]]`, `[[1,["types"]],[5,["purposes","handling"]]]`,
	`[[1,null],[2,[]],[3,"types"],[4,[null,"rights"]],[null,["other"]]]`,
	`[[-0,"\ud83d\ude00\ud800\u00e9"],[-9223372036854775808,null]]`,
	`[["a","b","c","d"]]`, `[[null,null,null,null]]`, `[["a","b","c"]]`, `[["a","b","c","d","e"]]`,
	`[["a","b","c",1]]`, `[["a","b","c","d",1]]`, `[["x","Physical profile","Contact info","postal address"]]`,
	`[[3,"Data retention","Stated","six (6) years"]]`, `[[3,null,null,null]]`, `[[3,"a","b"]]`,
	`[[3,"Data retention","Stated","x"],null]`, `[[3,"Data retention","Stated","x"],[]]`,
	"[[1,\"a\"," + strings.Repeat("[", 9998) + strings.Repeat("]", 9998) + "]]",
	"[[1,\"a\"," + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + "]]",
}

// checkParse requires parse to accept and reject what ref does and, on
// accept, to return a value deep-equal to ref's — nil and empty slices
// kept distinct — that re-encodes to an answer parsing to it again.
func checkParse[T any](t *testing.T, s string, parse, ref func(string) ([]T, error), encode func([]T) string, norm func([]T) []T) {
	t.Helper()
	got, err := parse(s)
	want, refErr := ref(s)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("%q: codec err %v, reference err %v", s, err, refErr)
	}
	if err != nil {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%q: codec %#v, reference %#v", s, got, want)
	}
	again, err := parse(encode(got))
	if err != nil || !reflect.DeepEqual(again, norm(got)) {
		t.Fatalf("%q: re-encoding %q parses to %#v (err %v), want %#v", s, encode(got), again, err, norm(got))
	}
}

func same[T any](v []T) []T { return v }

// emptyLabels is what a decoded line-label answer reads back as after
// re-encoding: a nil label list is written as [].
func emptyLabels(lls []LineLabels) []LineLabels {
	out := make([]LineLabels, len(lls))
	for i, ll := range lls {
		out[i] = ll
		if ll.Labels == nil {
			out[i].Labels = []string{}
		}
	}
	return out
}

func checkParseAll(t *testing.T, s string) {
	t.Helper()
	checkParse(t, s, ParseLineLabels, refParseLineLabels, EncodeLineLabels, emptyLabels)
	checkParse(t, s, ParseExtractions, refParseExtractions, EncodeExtractions, same[Extraction])
	checkParse(t, s, ParseNormalizations, refParseNormalizations, EncodeNormalizations, same[Normalization])
	checkParse(t, s, ParseLabeledMentions, refParseLabeledMentions, EncodeLabeledMentions, same[LabeledMention])
}

func TestParseAnswersMatchReference(t *testing.T) {
	for _, s := range append(append([]string{}, edgeAnswers...), simAnswers(t, 2)...) {
		checkParseAll(t, s)
	}
}

// TestParseAnswersIntern: a decoded vocabulary string is the taxonomy's
// own copy, and any other string is a copy, never a substring of the
// completion.
func TestParseAnswersIntern(t *testing.T) {
	cat := taxonomy.TypeCategories()[0]
	answer := EncodeNormalizations([]Normalization{{Surface: "my mailing address", Meta: cat.Meta, Category: cat.Name, Descriptor: cat.Descriptors[0].Name}})
	ns, err := ParseNormalizations(answer)
	if err != nil {
		t.Fatal(err)
	}
	if unsafe.StringData(ns[0].Category) != unsafe.StringData(cat.Name) || unsafe.StringData(ns[0].Meta) != unsafe.StringData(cat.Meta) {
		t.Errorf("category %q and meta %q were not interned", ns[0].Category, ns[0].Meta)
	}
	base := uintptr(unsafe.Pointer(unsafe.StringData(answer)))
	if p := uintptr(unsafe.Pointer(unsafe.StringData(ns[0].Surface))); p >= base && p < base+uintptr(len(answer)) {
		t.Errorf("surface %q points into the completion", ns[0].Surface)
	}
}

// TestParseAnswersAcrossGenerations parses from several goroutines while
// taxonomy extensions come and go, so the vocabulary table is rebuilt
// under concurrent readers; an extension's category is interned once its
// generation's table holds it.
func TestParseAnswersAcrossGenerations(t *testing.T) {
	t.Cleanup(taxonomy.ClearExtension)
	cat := taxonomy.TypeCategories()[0]
	answer := EncodeNormalizations([]Normalization{{"x", cat.Meta, cat.Name, "carrier pigeon address"}})
	want := []Normalization{{"x", cat.Meta, cat.Name, "carrier pigeon address"}}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if ns, err := ParseNormalizations(answer); err != nil || !reflect.DeepEqual(ns, want) {
					t.Errorf("parse: %#v (err %v), want %#v", ns, err, want)
					return
				}
			}
		}()
	}
	ext := taxonomy.Extension{TypeDescriptors: map[string][]taxonomy.Descriptor{cat.Name: {{Name: "carrier pigeon address"}}}}
	for i := 0; i < 20; i++ {
		if err := taxonomy.Register(ext); err != nil {
			t.Fatal(err)
		}
		taxonomy.ClearExtension()
	}
	wg.Wait()
	if err := taxonomy.Register(ext); err != nil {
		t.Fatal(err)
	}
	ns, err := ParseNormalizations(answer)
	if err != nil {
		t.Fatal(err)
	}
	if d := vocabulary()["carrier pigeon address"]; unsafe.StringData(ns[0].Descriptor) != unsafe.StringData(d) {
		t.Errorf("extension descriptor %q was not interned", ns[0].Descriptor)
	}
}

// FuzzParseAnswers: on any input each parser accepts and rejects what
// its encoding/json reference does, and on accept returns a deep-equal
// value whose re-encoding parses back to it.
func FuzzParseAnswers(f *testing.F) {
	for _, s := range edgeAnswers {
		f.Add(s)
	}
	for _, s := range simAnswers(f, 2) {
		f.Add(s)
	}
	f.Fuzz(checkParseAll)
}

// encodeEdgeStrings exercise every branch of the string writer.
var encodeEdgeStrings = []string{
	"", "plain", `"\/`, "<a href=\"x\">&amp;</a>", "\b\f\n\r\t\x00\x1f\x7f", "\xff", "a\xed\xa0\x80b",
	"\u2028\u2029", "é😀", "\ufffd", "\xe2\x80", "tab\there",
}

func checkEncodeAll(t *testing.T, n int, a, b, c, d string) {
	t.Helper()
	lls := []LineLabels{{Line: n, Labels: []string{a, b}}, {Line: -n}, {Line: n / 2, Labels: []string{}}, {Line: 1, Labels: []string{c, d}}}
	es := []Extraction{{n, a}, {-n, b}, {0, c}, {1, d}}
	ns := []Normalization{{a, b, c, d}, {d, c, b, a}}
	ms := []LabeledMention{{n, a, b, c}, {-n, d, "", a}}
	for _, pair := range [][2]string{
		{EncodeLineLabels(lls), refEncodeLineLabels(lls)},
		{EncodeExtractions(es), refEncodeExtractions(es)},
		{EncodeNormalizations(ns), refEncodeNormalizations(ns)},
		{EncodeLabeledMentions(ms), refEncodeLabeledMentions(ms)},
		{EncodeLineLabels(lls[:1]), refEncodeLineLabels(lls[:1])},
		{EncodeExtractions(es[:1]), refEncodeExtractions(es[:1])},
	} {
		if pair[0] != pair[1] {
			t.Fatalf("codec wrote %q, reference %q", pair[0], pair[1])
		}
	}
}

func TestEncodeAnswersMatchReference(t *testing.T) {
	for _, empty := range [][2]string{
		{EncodeLineLabels(nil), refEncodeLineLabels(nil)},
		{EncodeExtractions(nil), refEncodeExtractions(nil)},
		{EncodeNormalizations([]Normalization{}), refEncodeNormalizations([]Normalization{})},
		{EncodeLabeledMentions(nil), refEncodeLabeledMentions(nil)},
		{EncodeLineLabels([]LineLabels{{Line: 1}}), refEncodeLineLabels([]LineLabels{{Line: 1}})},
	} {
		if empty[0] != empty[1] {
			t.Errorf("codec wrote %q, reference %q", empty[0], empty[1])
		}
	}
	for i, s := range encodeEdgeStrings {
		checkEncodeAll(t, i*7-3, s, encodeEdgeStrings[(i+1)%len(encodeEdgeStrings)], strings.Repeat(s, 3), "x"+s)
	}
	checkEncodeAll(t, math.MaxInt64, "", "", "", "")
	checkEncodeAll(t, math.MinInt64, "", "", "", "")
	// Every sim answer re-encodes to its own bytes. The formats are tried
	// narrowest first: a line-label parse also reads an extraction's bare
	// string as a label.
	for _, s := range simAnswers(t, 2) {
		var again string
		if ms, err := ParseLabeledMentions(s); err == nil {
			again = EncodeLabeledMentions(ms)
		} else if ns, err := ParseNormalizations(s); err == nil {
			again = EncodeNormalizations(ns)
		} else if es, err := ParseExtractions(s); err == nil {
			again = EncodeExtractions(es)
		} else if lls, err := ParseLineLabels(s); err == nil {
			again = EncodeLineLabels(lls)
		}
		if again != s {
			t.Errorf("sim answer %q re-encodes to %q", s, again)
		}
	}
}

// FuzzEncodeAnswers: for arbitrary strings and ints each encoder writes
// its encoding/json reference's bytes.
func FuzzEncodeAnswers(f *testing.F) {
	for i, s := range encodeEdgeStrings {
		f.Add(i-5, s, encodeEdgeStrings[(i+3)%len(encodeEdgeStrings)], "Contact info", s+s)
	}
	f.Add(math.MaxInt64, "", "", "", "")
	f.Add(math.MinInt64, "", "", "", "")
	for i, s := range simAnswers(f, 1) {
		if ns, err := ParseNormalizations(s); err == nil && len(ns) > 0 {
			n := ns[i%len(ns)]
			f.Add(i, n.Surface, n.Meta, n.Category, n.Descriptor)
		}
		if ms, err := ParseLabeledMentions(s); err == nil && len(ms) > 0 {
			m := ms[i%len(ms)]
			f.Add(m.Line, m.Group, m.Label, m.Text, s)
		}
	}
	f.Fuzz(checkEncodeAll)
}

// benchAnswers builds 12-tuple answers of each format from the taxonomy.
func benchAnswers() (lls []LineLabels, es []Extraction, ns []Normalization, ms []LabeledMention) {
	aspects := taxonomy.Aspects()
	labels := append(retentionLabels(), choiceLabels()...)
	for _, c := range taxonomy.TypeCategories() {
		for _, d := range c.Descriptors {
			i := len(ns)
			if i == 12 {
				return
			}
			lls = append(lls, LineLabels{Line: i + 1, Labels: []string{string(aspects[i%9]), string(aspects[(i+4)%9])}})
			es = append(es, Extraction{Line: 40 + i, Text: "your " + d.Name})
			ns = append(ns, Normalization{Surface: "your " + d.Name, Meta: c.Meta, Category: c.Name, Descriptor: d.Name})
			l := labels[i%len(labels)]
			ms = append(ms, LabeledMention{Line: 60 + i, Group: l.Group, Label: l.Name, Text: l.Cues[0]})
		}
	}
	return
}

// BenchmarkParseAnswers parses a 12-tuple answer of each format with the
// codec and with the encoding/json reference (run with -benchmem).
func BenchmarkParseAnswers(b *testing.B) {
	lls, es, ns, ms := benchAnswers()
	run := func(name, answer string, parse func(string) error) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := parse(answer); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	run("line-labels", EncodeLineLabels(lls), func(s string) error { _, err := ParseLineLabels(s); return err })
	run("line-labels/ref", EncodeLineLabels(lls), func(s string) error { _, err := refParseLineLabels(s); return err })
	run("extractions", EncodeExtractions(es), func(s string) error { _, err := ParseExtractions(s); return err })
	run("extractions/ref", EncodeExtractions(es), func(s string) error { _, err := refParseExtractions(s); return err })
	run("normalizations", EncodeNormalizations(ns), func(s string) error { _, err := ParseNormalizations(s); return err })
	run("normalizations/ref", EncodeNormalizations(ns), func(s string) error { _, err := refParseNormalizations(s); return err })
	run("labeled-mentions", EncodeLabeledMentions(ms), func(s string) error { _, err := ParseLabeledMentions(s); return err })
	run("labeled-mentions/ref", EncodeLabeledMentions(ms), func(s string) error { _, err := refParseLabeledMentions(s); return err })
}

var encodeSink string

// BenchmarkEncodeAnswers encodes the same answers both ways.
func BenchmarkEncodeAnswers(b *testing.B) {
	lls, es, ns, ms := benchAnswers()
	run := func(name string, encode func() string) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				encodeSink = encode()
			}
		})
	}
	run("line-labels", func() string { return EncodeLineLabels(lls) })
	run("line-labels/ref", func() string { return refEncodeLineLabels(lls) })
	run("extractions", func() string { return EncodeExtractions(es) })
	run("extractions/ref", func() string { return refEncodeExtractions(es) })
	run("normalizations", func() string { return EncodeNormalizations(ns) })
	run("normalizations/ref", func() string { return refEncodeNormalizations(ns) })
	run("labeled-mentions", func() string { return EncodeLabeledMentions(ms) })
	run("labeled-mentions/ref", func() string { return refEncodeLabeledMentions(ms) })
}
