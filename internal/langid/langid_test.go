package langid

import (
	"sort"
	"strings"
	"testing"
	"unicode"

	"aipan/internal/nlp"
	"aipan/internal/russell"
	"aipan/internal/textify"
	"aipan/internal/webgen"
)

const enText = `We collect personal information that you provide to us, such as your
name, email address, and phone number. We use this information to provide and
improve our services, and we may share it with our partners as described in
this policy. You can opt out of marketing communications at any time.`

const deText = `Wir erheben personenbezogene Daten, die Sie uns zur Verfügung
stellen, wie zum Beispiel Ihren Namen und Ihre E-Mail-Adresse. Wir verwenden
diese Daten, um unsere Dienste bereitzustellen und zu verbessern. Sie können
der Verarbeitung Ihrer Daten jederzeit widersprechen.`

const frText = `Nous recueillons les informations personnelles que vous nous
fournissez, telles que votre nom et votre adresse électronique. Nous utilisons
ces données pour fournir et améliorer nos services. Vous pouvez vous opposer
au traitement de vos données à tout moment.`

const esText = `Recopilamos la información personal que usted nos proporciona,
como su nombre y su dirección de correo electrónico. Utilizamos estos datos
para proporcionar y mejorar nuestros servicios. Usted puede oponerse al
tratamiento de sus datos en cualquier momento.`

func TestDetect(t *testing.T) {
	cases := []struct {
		text string
		want Lang
	}{
		{enText, English},
		{deText, German},
		{frText, French},
		{esText, Spanish},
	}
	for _, c := range cases {
		got, score := Detect(c.text)
		if got != c.want {
			t.Errorf("Detect(...) = %v (score %.3f), want %v", got, score, c.want)
		}
	}
}

// scoreLines scores lines in turn with one Scorer, as the crawler's
// language check scores a rendered page.
func scoreLines(lines []string) (Lang, float64) {
	var sc Scorer
	for _, l := range lines {
		sc.Add(l)
	}
	return sc.Result()
}

func TestScorerIsEnglishLineByLine(t *testing.T) {
	if lang, _ := scoreLines(strings.Split(enText, "\n")); lang != English {
		t.Errorf("English text scored line by line = %v", lang)
	}
	for _, text := range []string{deText, frText, esText} {
		if lang, _ := scoreLines(strings.Split(text, "\n")); lang == English {
			t.Errorf("non-English text scored line by line as English: %.40q", text)
		}
	}
}

func TestDetectShortText(t *testing.T) {
	if lang, _ := Detect("ok"); lang != Unknown {
		t.Errorf("short text = %v, want Unknown", lang)
	}
	if lang, _ := Detect(""); lang != Unknown {
		t.Errorf("empty = %v, want Unknown", lang)
	}
}

func TestDetectGibberish(t *testing.T) {
	if lang, _ := Detect("zzz qqq xxx www yyy vvv kkk jjj"); lang != Unknown {
		t.Errorf("gibberish = %v, want Unknown", lang)
	}
}

func TestMixedLanguageScoresLow(t *testing.T) {
	// A 50/50 mixed document should score lower than a pure one for any
	// single language (the §4 mixed-language policy was discarded).
	mixed := enText + " " + deText
	_, mixedScore := Detect(mixed)
	_, pureScore := Detect(enText)
	if mixedScore >= pureScore {
		t.Errorf("mixed score %.3f >= pure score %.3f", mixedScore, pureScore)
	}
}

func BenchmarkDetect(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Detect(enText)
	}
}

// referenceSets holds one stopword set per language, in langOrder.
var referenceSets = func() (sets [len(langOrder)]map[string]bool) {
	for j, l := range langOrder {
		sets[j] = map[string]bool{}
		for _, w := range profiles[l] {
			sets[j][w] = true
		}
	}
	return sets
}()

// detectFourMaps is the detector as it scored before the bitmask: every
// token probes each language's stopword set in turn. Detect must return
// exactly its (Lang, score).
func detectFourMaps(text string) (Lang, float64) {
	sets := referenceSets
	var hits [len(langOrder)]int
	total := 0
	var scratch []byte
	for i := 0; i < len(text) && total < 4000; {
		r, sz := nlp.DecodeRuneAt(text, i)
		if !unicode.IsLetter(r) {
			i += sz
			continue
		}
		start := i
		needsLower := unicode.ToLower(r) != r
		i += sz
		for i < len(text) {
			r, sz = nlp.DecodeRuneAt(text, i)
			if !unicode.IsLetter(r) {
				break
			}
			if unicode.ToLower(r) != r {
				needsLower = true
			}
			i += sz
		}
		tok := text[start:i]
		total++
		if needsLower {
			scratch = appendLower(scratch[:0], tok)
			for j := range sets {
				if sets[j][string(scratch)] {
					hits[j]++
				}
			}
			continue
		}
		for j := range sets {
			if sets[j][tok] {
				hits[j]++
			}
		}
	}
	if total < 5 {
		return Unknown, 0
	}
	best, bestScore := Unknown, 0.0
	for j, l := range langOrder {
		score := float64(hits[j]) / float64(total)
		if score > bestScore {
			best, bestScore = l, score
		}
	}
	if bestScore < 0.05 {
		return Unknown, bestScore
	}
	return best, bestScore
}

// webgenPageTexts renders the rendered text of every privacy page of the
// first n sites plus every non-English site (webgen writes its foreign
// policies in German).
func webgenPageTexts(t *testing.T, n int) (english, german []string) {
	t.Helper()
	g := webgen.New(webgen.Seed, russell.UniqueDomains(russell.Universe(webgen.Seed)))
	for i, s := range g.Sites() {
		if i >= n && s.Failure != webgen.FailNonEnglish {
			continue
		}
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
			text := textify.RenderHTML(p.Body).Text()
			if s.Failure == webgen.FailNonEnglish {
				german = append(german, text)
			} else {
				english = append(english, text)
			}
		}
	}
	if len(english) == 0 || len(german) == 0 {
		t.Fatalf("webgen yielded %d English and %d German pages", len(english), len(german))
	}
	return english, german
}

// TestDetectMatchesFourMapReference: the single-probe bitmask scores
// every text exactly as the four stopword maps did — hit counts, the
// langOrder tie-break and the 4,000-token cap included.
func TestDetectMatchesFourMapReference(t *testing.T) {
	english, german := webgenPageTexts(t, 60)
	texts := append([]string{}, english...)
	texts = append(texts, german...)
	texts = append(texts, enText, deText, frText, esText)
	// Mixed-language pages, in both orders.
	for i := range german {
		e := english[i%len(english)]
		texts = append(texts, e+"\n"+german[i], german[i]+"\n"+e, frText+" "+esText+" "+e)
	}
	// Under 5 tokens, stopwords shared across profiles, case and accents.
	texts = append(texts, "", "ok", "la de que", "LA DE QUE EN ES", "Für DIE Daten",
		"Données DE LA société", "MÁS DATOS", "la de en un que", "zzz qqq xxx www yyy")
	// Past the 4,000-token cap: a long page, and one whose language
	// changes only after the cap, so the cap decides the answer.
	long := strings.Repeat(english[0]+" ", 4000/len(strings.Fields(english[0]))+2)
	texts = append(texts, long, strings.Repeat("der die das und wir ", 800)+strings.Repeat(enText, 200))
	capped := 0
	for _, text := range texts {
		if len(strings.Fields(text)) > 4000 {
			capped++
		}
		gotLang, gotScore := Detect(text)
		wantLang, wantScore := detectFourMaps(text)
		if gotLang != wantLang || gotScore != wantScore {
			t.Errorf("Detect(%.60q) = (%v, %v), reference (%v, %v)", text, gotLang, gotScore, wantLang, wantScore)
		}
	}
	if capped < 2 {
		t.Errorf("only %d texts pass the 4,000-token cap", capped)
	}
	if lang, _ := Detect(german[0]); lang != German {
		t.Errorf("webgen German page detected as %v", lang)
	}
}

// TestScorerMatchesDetectOnPages: scoring a rendered page line by line
// gives exactly Detect's language and score on the page's joined text —
// on every page of the first 20 webgen sites and of the first site of
// each extraction-failure class, on an all-blank page, and on pages
// whose 4,000th token falls mid-line, before a change of language.
func TestScorerMatchesDetectOnPages(t *testing.T) {
	g := webgen.New(webgen.Seed, russell.UniqueDomains(russell.Universe(webgen.Seed)))
	classes := map[webgen.FailureClass]bool{
		webgen.FailNonEnglish: true, webgen.FailJSOnly: true, webgen.FailImagePolicy: true,
		webgen.FailStub: true, webgen.FailPDFOnly: true, webgen.FailVague: true,
	}
	var docs [][]string
	for i, s := range g.Sites() {
		if i >= 20 && !classes[s.Failure] {
			continue
		}
		delete(classes, s.Failure)
		pages := g.RenderSite(s.Domain)
		var paths []string
		for path := range pages {
			paths = append(paths, path)
		}
		sort.Strings(paths)
		for _, path := range paths {
			if body := pages[path].Body; body != "" {
				doc := textify.RenderHTML(body)
				lines := make([]string, len(doc.Lines))
				for k, l := range doc.Lines {
					lines[k] = l.Text
				}
				docs = append(docs, lines)
			}
		}
	}
	if len(classes) > 0 {
		t.Fatalf("webgen has no site of classes %v", classes)
	}
	docs = append(docs, nil, []string{""}, []string{"", "  ", "\t", ""})
	// 571 lines of 7 tokens put the 4,000th token third on the next
	// line; what follows it is German, so only the shared budget keeps
	// the answer English.
	var capped []string
	for range 571 {
		capped = append(capped, "We collect your data and share it.")
	}
	capped = append(capped, "the and of der die das und wir sie ihre")
	for range 600 {
		capped = append(capped, "Wir und die Daten der Nutzer sind nicht für das Konto.")
	}
	docs = append(docs, capped, append([]string{"Über uns:"}, capped...))
	var english, other int
	for _, lines := range docs {
		gotLang, gotScore := scoreLines(lines)
		wantLang, wantScore := Detect(strings.Join(lines, "\n"))
		if gotLang != wantLang || gotScore != wantScore {
			t.Errorf("line-wise (%v, %v), Detect (%v, %v) on %.60q", gotLang, gotScore, wantLang, wantScore, lines)
		}
		if wantLang == English {
			english++
		} else {
			other++
		}
	}
	if english == 0 || other == 0 {
		t.Errorf("pages cover %d English and %d other verdicts, want both", english, other)
	}
	if lang, _ := scoreLines(capped); lang != English {
		t.Errorf("capped page = %v, want English (the cap falls before the German)", lang)
	}
}
