package nlp

// NegationScope answers IsNegatedMention(SentenceOf(line, m), m) for any
// number of mentions m of one line, deriving each form of the line once
// instead of once per mention. The line is split with Sentences on the
// first query; a sentence's words and stems are derived the first time a
// mention's span search reaches it; a span's hypothetical flag, and
// unless it is hypothetical its negation mask, are derived the first
// time a mention lands in it. The whole-line span — SentenceOf's answer
// when no sentence holds the mention — is derived the same way, once.
// Each query tokenizes and stems its mention once.
//
// The zero value is a scope over the empty line; Reset moves it to
// another line and keeps its buffers.
type NegationScope struct {
	line  string
	split bool
	sents []string  // Sentences(line), once split
	spans []negSpan // one per sentence, once split
	full  negSpan   // the whole line
	// words, stems and mask run in parallel: a stemmed span owns the
	// range [lo, hi) of each.
	words, stems []string
	mask         []bool
	pw           []string // the current mention's stems
}

// negSpan is one candidate span of the line and what is derived of it.
type negSpan struct {
	text    string
	lo, hi  int
	stemmed bool // words and stems hold [lo, hi)
	judged  bool // hypo is set and, unless hypo, mask holds [lo, hi)
	hypo    bool // text holds a hypothetical phrase
}

// Reset points the scope at line, dropping what was derived of the
// previous one.
func (sc *NegationScope) Reset(line string) {
	sc.line, sc.split = line, false
	sc.sents, sc.spans = sc.sents[:0], sc.spans[:0]
	sc.full = negSpan{text: line}
	sc.words, sc.stems, sc.mask = sc.words[:0], sc.stems[:0], sc.mask[:0]
}

// Negated reports IsNegatedMention(SentenceOf(line, mention), mention)
// for the scope's line.
func (sc *NegationScope) Negated(mention string) bool {
	sc.pw = AppendWords(sc.pw[:0], mention)
	if len(sc.pw) == 0 {
		// SentenceOf returns the whole line, where findIn finds nothing.
		return sc.hypothetical(sc.wholeLine())
	}
	for i, w := range sc.pw {
		sc.pw[i] = Singular(w)
	}
	sp := sc.spanOf(sc.pw)
	if sc.hypothetical(sp) {
		return true
	}
	start, end, ok := findStems(sc.stemsOf(sp), sc.pw)
	if !ok {
		return false
	}
	for _, negated := range sc.mask[sp.lo+start : sp.lo+end] {
		if negated {
			return true
		}
	}
	return false
}

// spanOf is SentenceOf's choice for the stemmed mention pw: the first
// sentence whose stems hold pw in order, else the whole line.
func (sc *NegationScope) spanOf(pw []string) *negSpan {
	if !sc.split {
		sc.split = true
		sc.sents = appendSentences(sc.sents, sc.line)
		for _, s := range sc.sents {
			sc.spans = append(sc.spans, negSpan{text: s})
		}
	}
	for k := range sc.spans {
		sp := &sc.spans[k]
		j := 0
		for _, w := range sc.stemsOf(sp) {
			if j < len(pw) && w == pw[j] {
				j++
			}
		}
		if j == len(pw) {
			return sp
		}
	}
	return sc.wholeLine()
}

// wholeLine returns the whole-line span; when the line is its own only
// sentence, that sentence's span is the same text and serves for it.
func (sc *NegationScope) wholeLine() *negSpan {
	if len(sc.spans) == 1 && sc.spans[0].text == sc.line {
		return &sc.spans[0]
	}
	return &sc.full
}

// stemsOf returns the stems of sp's words, deriving them on first use.
func (sc *NegationScope) stemsOf(sp *negSpan) []string {
	if !sp.stemmed {
		sp.stemmed = true
		sp.lo = len(sc.words)
		sc.words = AppendWords(sc.words, sp.text)
		sp.hi = len(sc.words)
		for _, w := range sc.words[sp.lo:] {
			sc.stems = append(sc.stems, Singular(w))
		}
	}
	return sc.stems[sp.lo:sp.hi]
}

// hypothetical reports whether sp holds a hypothetical phrase. On first
// use it derives that flag and, when sp is not hypothetical,
// NegatedPositions' mask over its words.
func (sc *NegationScope) hypothetical(sp *negSpan) bool {
	if sp.judged {
		return sp.hypo
	}
	sp.judged = true
	if sp.hypo = hasHypothetical(sp.text); sp.hypo {
		return true
	}
	sc.stemsOf(sp)
	if n := len(sc.words) - len(sc.mask); n > 0 {
		sc.mask = append(sc.mask, make([]bool, n)...)
	}
	fillNegated(sc.mask[sp.lo:sp.hi], sc.words[sp.lo:sp.hi])
	return false
}
