package annotate

import (
	"aipan/internal/nlp"
)

// The per-document memo behind the hallucination filter and the context
// sentence. Nearly every chatbot mention is verified on the line it
// references, so the memo derives a line's forms only when a mention
// first points at it: its stemmed tokens for the filter, and — when an
// annotation is kept — its sentence split with each sentence's stemmed
// tokens for the context. The lenient second chance ("the mention
// appears anywhere in the policy") needs every line, so the posting map
// from stemmed token to the lines containing it is built on the first
// referenced-line miss and never on documents without one. The predicates
// are exactly nlp.ContainsWords and nlp.SentenceOf's; only the order in
// which the work is done changes.
//
// The four aspects of a document run concurrently, so docContext.mu
// guards the memo (lines, toks) and the index (byWord).

// lineMemo is one line's derived forms, each filled on first use.
type lineMemo struct {
	// stems are the line's stemmed tokens, valid once stemmed is set.
	stems   []string
	stemmed bool
	// sents is the line's sentence split with per-sentence stems, valid
	// once split is set; it stays nil when the line is its own only
	// sentence, since nlp.SentenceOf then returns the line whatever the
	// mention.
	sents []sentence
	split bool
}

// sentence is one sentence of a line and its stemmed tokens.
type sentence struct {
	text  string
	stems []string
}

// appendStems appends the stemmed tokens of s to out — the form both
// sides of the containment check are compared in (see nlp.ContainsWords).
func appendStems(out []string, s string) []string {
	start := len(out)
	out = nlp.AppendWords(out, s)
	for i := start; i < len(out); i++ {
		out[i] = nlp.Singular(out[i])
	}
	return out
}

// stemmedWords returns phrase's stemmed token sequence.
func stemmedWords(phrase string) []string {
	return appendStems(nil, phrase)
}

// containsStems reports whether ws contains pw as an ordered, possibly
// discontinuous subsequence (both pre-stemmed). An empty pw is contained
// everywhere; callers rule it out first, as nlp.ContainsWords does.
func containsStems(ws, pw []string) bool {
	j := 0
	for _, w := range ws {
		if j < len(pw) && w == pw[j] {
			j++
		}
	}
	return j == len(pw)
}

// stem appends s's stemmed tokens to the document's shared token buffer
// and returns them, capacity-capped so a later append never writes into
// them. dc.mu must be held.
func (dc *docContext) stem(s string) []string {
	start := len(dc.toks)
	dc.toks = appendStems(dc.toks, s)
	return dc.toks[start:len(dc.toks):len(dc.toks)]
}

// lineStems returns the stemmed tokens of the line at index li, stemming
// it on first use. dc.mu must be held.
func (dc *docContext) lineStems(li int) []string {
	m := &dc.lines[li]
	if !m.stemmed {
		m.stems = dc.stem(dc.doc.Lines[li].Text)
		m.stemmed = true
	}
	return m.stems
}

// mentionPresent is the hallucination filter's predicate on a mention's
// stemmed words pw: nlp.ContainsWords on the referenced line (1-based),
// or failing that on any line of the document.
func (dc *docContext) mentionPresent(line int, pw []string) bool {
	if len(pw) == 0 {
		return false
	}
	dc.mu.Lock()
	defer dc.mu.Unlock()
	if li := line - 1; li >= 0 && li < len(dc.lines) && containsStems(dc.lineStems(li), pw) {
		return true
	}
	return dc.anywhere(pw)
}

// anywhere reports whether any line of the document contains pw,
// building the posting index on first use. Candidate lines come from the
// shortest posting list among pw's tokens (a line that matches must
// contain every token), so a miss costs no full-document scan once the
// index exists. dc.mu must be held.
func (dc *docContext) anywhere(pw []string) bool {
	if dc.byWord == nil {
		dc.byWord = map[string][]int{}
		for li := range dc.lines {
			for _, w := range dc.lineStems(li) {
				post := dc.byWord[w]
				if len(post) == 0 || post[len(post)-1] != li {
					dc.byWord[w] = append(post, li)
				}
			}
		}
	}
	var cand []int
	for i, w := range pw {
		post, ok := dc.byWord[w]
		if !ok {
			return false
		}
		if i == 0 || len(post) < len(cand) {
			cand = post
		}
	}
	for _, li := range cand {
		if containsStems(dc.lines[li].stems, pw) {
			return true
		}
	}
	return false
}

// contextSentence recovers the sentence of the referenced line (1-based)
// that contains the mention's stemmed words pw — exactly
// nlp.SentenceOf(line text, mention) — or "" when the line is out of
// range.
func (dc *docContext) contextSentence(line int, pw []string) string {
	li := line - 1
	if li < 0 || li >= len(dc.lines) {
		return ""
	}
	text := dc.doc.Lines[li].Text
	if len(pw) == 0 {
		return text
	}
	dc.mu.Lock()
	defer dc.mu.Unlock()
	m := &dc.lines[li]
	if !m.split {
		m.split = true
		if ss := nlp.Sentences(text); len(ss) > 1 || len(ss) == 1 && ss[0] != text {
			m.sents = make([]sentence, len(ss))
			for k, s := range ss {
				m.sents[k] = sentence{text: s, stems: dc.stem(s)}
			}
		}
	}
	for _, s := range m.sents {
		if containsStems(s.stems, pw) {
			return s.text
		}
	}
	return text
}
