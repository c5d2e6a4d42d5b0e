package chatbot

import (
	"strings"
	"unicode"

	"aipan/internal/nlp"
)

// tokenPos is a lowercase token with its byte span in the original line.
type tokenPos struct {
	word  string // lowercase surface form
	stem  string // singular lemma
	start int
	end   int
}

// tokenize splits a line into tokens with byte offsets, so that matched
// spans can be reported verbatim ("pinpoint the exact word(s) used in the
// text").
func tokenize(line string) []tokenPos {
	return tokenizeInto(nil, line)
}

// tokenizeInto appends line's tokens to out — per-line loops pass a reused
// scratch slice (out[:0]), taken from tokenBufs once per request, so the
// token buffer is not allocated per line or per request. Nothing
// downstream retains the slice: matchers and span wideners only read it
// within the line's iteration.
func tokenizeInto(out []tokenPos, line string) []tokenPos {
	i := 0
	for i < len(line) {
		r := rune(line[i])
		if !isWordByte(byte(r)) {
			i++
			continue
		}
		j := i
		for j < len(line) && (isWordByte(line[j]) ||
			((line[j] == '\'' || line[j] == '-') && j+1 < len(line) && isWordByte(line[j+1]))) {
			j++
		}
		w := strings.ToLower(line[i:j])
		out = append(out, tokenPos{word: w, stem: nlp.Singular(w), start: i, end: j})
		i = j
	}
	return out
}

func isWordByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c >= 0x80
}

// phraseMatcher finds known multi-word surface forms in token streams,
// longest-match-first.
type phraseMatcher struct {
	// byFirst maps the first stem of each pattern to the candidate
	// patterns starting with it, longest first.
	byFirst map[string][]pattern
}

type pattern struct {
	stems   []string
	payload string // the canonical surface form (glossary entry)
}

// newPhraseMatcher compiles the surfaces. Duplicate stem-sequences keep the
// first payload.
func newPhraseMatcher(surfaces []string) *phraseMatcher {
	m := &phraseMatcher{byFirst: map[string][]pattern{}}
	seen := map[string]bool{}
	for _, s := range surfaces {
		ws := nlp.Words(s)
		if len(ws) == 0 {
			continue
		}
		stems := make([]string, len(ws))
		for i, w := range ws {
			stems[i] = nlp.Singular(w)
		}
		key := strings.Join(stems, " ")
		if seen[key] {
			continue
		}
		seen[key] = true
		m.byFirst[stems[0]] = append(m.byFirst[stems[0]], pattern{stems: stems, payload: s})
	}
	// Longest-first within each bucket.
	for k := range m.byFirst {
		ps := m.byFirst[k]
		for i := 1; i < len(ps); i++ {
			for j := i; j > 0 && len(ps[j].stems) > len(ps[j-1].stems); j-- {
				ps[j], ps[j-1] = ps[j-1], ps[j]
			}
		}
	}
	return m
}

// matchSpan is one phrase hit in a line.
type matchSpan struct {
	// text is the verbatim matched span from the original line.
	text string
	// payload is the canonical glossary surface form.
	payload string
	// startTok/endTok delimit the token range [startTok, endTok).
	startTok, endTok int
}

// find returns non-overlapping matches in line, greedy left-to-right and
// longest-first at each position.
func (m *phraseMatcher) find(line string) []matchSpan {
	return m.findToks(line, tokenize(line))
}

// findToks is find over an already-tokenized line, letting callers that
// run several matchers (or matcher + noun-phrase passes) over the same
// line tokenize it once.
func (m *phraseMatcher) findToks(line string, toks []tokenPos) []matchSpan {
	var out []matchSpan
	for i := 0; i < len(toks); i++ {
		cands := m.byFirst[toks[i].stem]
		matched := false
		for _, p := range cands {
			if i+len(p.stems) > len(toks) {
				continue
			}
			ok := true
			for k := 1; k < len(p.stems); k++ {
				if toks[i+k].stem != p.stems[k] {
					ok = false
					break
				}
			}
			if ok {
				end := i + len(p.stems)
				out = append(out, matchSpan{
					text:     line[toks[i].start:toks[end-1].end],
					payload:  p.payload,
					startTok: i,
					endTok:   end,
				})
				i = end - 1
				matched = true
				break
			}
		}
		_ = matched
	}
	return out
}

// npHeads are noun heads that close a zero-shot data-type noun phrase.
var npHeads = map[string]bool{
	"data": true, "information": true, "info": true, "record": true,
	"history": true, "detail": true, "metric": true, "log": true,
	"identifier": true, "number": true, "preference": true,
}

// npStop are words that cannot appear inside a candidate noun phrase.
var npStop = map[string]bool{
	"the": true, "a": true, "an": true, "we": true, "you": true, "your": true,
	"our": true, "their": true, "this": true, "that": true, "and": true,
	"or": true, "of": true, "to": true, "for": true, "with": true, "may": true,
	"collect": true, "use": true, "share": true, "process": true, "other": true,
	"certain": true, "such": true, "as": true, "any": true, "all": true,
	"personal": true, "following": true, "more": true,
}

// findNovelNounPhrases extracts zero-shot data-type candidates: 2–4 word
// noun phrases ending in a data-ish head ("pet adoption records") that did
// not overlap a glossary match. It emulates the chatbot "generating
// descriptors of its own for data types not listed in the glossary".
func findNovelNounPhrases(line string, toks []tokenPos, taken []matchSpan) []matchSpan {
	used := make([]bool, len(toks))
	for _, s := range taken {
		for i := s.startTok; i < s.endTok && i < len(used); i++ {
			used[i] = true
		}
	}
	var out []matchSpan
	for i := 0; i < len(toks); i++ {
		if !npHeads[toks[i].stem] || used[i] {
			continue
		}
		// Walk back over up to 3 modifier tokens.
		start := i
		for start > 0 && i-start < 3 {
			prev := toks[start-1]
			if used[start-1] || npStop[prev.word] || !isModifier(prev.word) {
				break
			}
			start--
		}
		if start == i {
			continue // bare head ("data") is not a descriptor
		}
		span := matchSpan{
			text:     line[toks[start].start:toks[i].end],
			payload:  line[toks[start].start:toks[i].end],
			startTok: start,
			endTok:   i + 1,
		}
		out = append(out, span)
		for k := start; k <= i; k++ {
			used[k] = true
		}
	}
	return out
}

func isModifier(w string) bool {
	if len(w) < 3 {
		return false
	}
	for _, r := range w {
		if !unicode.IsLetter(r) && r != '-' && r != '\'' {
			return false
		}
	}
	return true
}
