// Package langid identifies the language of a text using stopword-profile
// scoring. The crawl pipeline (§3.1) drops non-English privacy pages before
// annotation; this detector distinguishes English from the European
// languages that dominate non-English corporate sites (German, French,
// Spanish), which is all the paper's filter needs.
package langid

import (
	"unicode"
	"unicode/utf8"
)

// Lang is an ISO-639-1 language code.
type Lang string

// Languages the detector scores.
const (
	English Lang = "en"
	German  Lang = "de"
	French  Lang = "fr"
	Spanish Lang = "es"
	Unknown Lang = "und"
)

var profiles = map[Lang][]string{
	English: {
		"the", "and", "of", "to", "in", "we", "you", "your", "that", "for",
		"is", "are", "with", "our", "this", "or", "as", "may", "not", "by",
		"on", "be", "from", "will", "can", "us", "have", "use", "any", "it",
	},
	German: {
		"der", "die", "das", "und", "wir", "sie", "ihre", "nicht", "mit",
		"von", "für", "auf", "werden", "eine", "ein", "zu", "den", "des",
		"im", "ist", "daten", "oder", "wie", "bei", "durch", "nach", "dem",
	},
	French: {
		"le", "la", "les", "et", "nous", "vous", "vos", "des", "que", "pour",
		"dans", "est", "sont", "avec", "votre", "une", "un", "du", "de",
		"ne", "pas", "sur", "par", "ces", "aux", "être", "données",
	},
	Spanish: {
		"el", "la", "los", "las", "y", "nosotros", "usted", "sus", "que",
		"para", "en", "es", "son", "con", "su", "una", "un", "del", "de",
		"no", "por", "se", "datos", "como", "más", "este", "esta",
	},
}

// langOrder fixes the scoring order (and therefore tie-breaking) instead
// of ranging over the profile map.
var langOrder = [...]Lang{English, German, French, Spanish}

// profileMask maps every stopword to the languages whose profile holds
// it, as a bitmask over langOrder (bit j for langOrder[j]): one map probe
// per token instead of one per language.
var profileMask = func() map[string]uint8 {
	m := map[string]uint8{}
	for j, l := range langOrder {
		for _, w := range profiles[l] {
			m[w] |= 1 << j
		}
	}
	return m
}()

// maxTokens caps how many tokens of a text are scored.
const maxTokens = 4000

// Detect returns the best-scoring language and its score (fraction of
// tokens found in that language's stopword profile). Texts under 5 tokens
// or with no stopword hits return Unknown. It is a Scorer's one-piece
// case.
func Detect(text string) (Lang, float64) {
	var sc Scorer
	sc.Add(text)
	return sc.Result()
}

// Scorer scores a text that arrives in pieces — a rendered page, line by
// line — exactly as Detect scores the pieces joined by any separator
// that is not a letter ("\n" among them): no token spans a separator, so
// the tokens and the shared 4,000-token budget are the same. The zero
// value is an empty text.
//
// Tokens are scored as they are produced — the detector runs on every
// fetched page, and materializing a token slice per page was one of the
// crawl path's largest allocation sources. Mixed-case tokens are
// lowercased into a reused scratch buffer; the map probe via
// string(scratch) compiles to a lookup without a string copy.
type Scorer struct {
	hits    [len(langOrder)]int
	total   int
	scratch []byte
}

// Add scores the tokens of piece until the text's token budget is spent.
func (sc *Scorer) Add(piece string) {
	for i := 0; i < len(piece) && sc.total < maxTokens; {
		r, sz := rune(piece[i]), 1
		if r >= utf8.RuneSelf {
			r, sz = utf8.DecodeRuneInString(piece[i:])
		}
		if !unicode.IsLetter(r) {
			i += sz
			continue
		}
		start := i
		needsLower := unicode.ToLower(r) != r
		i += sz
		for i < len(piece) {
			r, sz = rune(piece[i]), 1
			if r >= utf8.RuneSelf {
				r, sz = utf8.DecodeRuneInString(piece[i:])
			}
			if !unicode.IsLetter(r) {
				break
			}
			if unicode.ToLower(r) != r {
				needsLower = true
			}
			i += sz
		}
		tok := piece[start:i]
		sc.total++
		var mask uint8
		if needsLower {
			sc.scratch = appendLower(sc.scratch[:0], tok)
			mask = profileMask[string(sc.scratch)]
		} else {
			mask = profileMask[tok]
		}
		for j := range sc.hits {
			sc.hits[j] += int(mask >> j & 1)
		}
	}
}

// Result returns the best-scoring language of the pieces added so far
// and its score, as Detect defines them.
func (sc *Scorer) Result() (Lang, float64) {
	if sc.total < 5 {
		return Unknown, 0
	}
	best, bestScore := Unknown, 0.0
	for j, l := range langOrder {
		score := float64(sc.hits[j]) / float64(sc.total)
		if score > bestScore {
			best, bestScore = l, score
		}
	}
	if bestScore < 0.05 {
		return Unknown, bestScore
	}
	return best, bestScore
}

// appendLower appends the lowercase form of tok to dst.
func appendLower(dst []byte, tok string) []byte {
	for _, r := range tok {
		dst = utf8.AppendRune(dst, unicode.ToLower(r))
	}
	return dst
}
