// Package nlp provides the light-weight natural-language machinery the
// annotation pipeline needs: word and sentence tokenization, normalization,
// a noun singularizer, fuzzy phrase matching, negation/hypothetical scope
// detection (§6 of the paper: "ignore mentions in negated contexts"),
// retention-period parsing, and edit distance.
package nlp

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// Words splits s into lowercase word tokens. A token is a maximal run of
// letters, digits, or internal apostrophes/hyphens ("don't", "opt-out").
// Tokens that are already lowercase — the common case in rendered policy
// text — are returned as subslices of s without copying, so the per-call
// allocation cost is the output slice plus one copy per mixed-case token.
func Words(s string) []string {
	return AppendWords(nil, s)
}

// AppendWords appends the word tokens of s to out and returns it — the
// allocation-conscious core of Words: it scans bytes, decodes runes only
// where the input is non-ASCII, and defers the lowercase copy until a
// token is known to need one. Callers indexing many lines reuse one
// backing slice across calls instead of paying a fresh slice per line.
func AppendWords(out []string, s string) []string {
	for i := 0; i < len(s); {
		r, sz := rune(s[i]), 1
		if r >= utf8.RuneSelf {
			r, sz = utf8.DecodeRuneInString(s[i:])
		}
		if !isWordRune(r) {
			i += sz
			continue
		}
		start := i
		needsCopy := unicode.ToLower(r) != r
		i += sz
		for i < len(s) {
			r, sz = rune(s[i]), 1
			if r >= utf8.RuneSelf {
				r, sz = utf8.DecodeRuneInString(s[i:])
			}
			if isWordRune(r) {
				if unicode.ToLower(r) != r {
					needsCopy = true
				}
				i += sz
				continue
			}
			// Internal apostrophes/hyphens join a token only when followed
			// by another word rune.
			if (r == '\'' || r == '-' || r == '’') && i+sz < len(s) {
				nr := rune(s[i+sz])
				if nr >= utf8.RuneSelf {
					nr, _ = utf8.DecodeRuneInString(s[i+sz:])
				}
				if isWordRune(nr) {
					if r == '’' {
						needsCopy = true // rewritten to ASCII '\''
					}
					i += sz
					continue
				}
			}
			break
		}
		tok := s[start:i]
		if needsCopy {
			tok = lowerToken(tok)
		}
		out = append(out, tok)
	}
	return out
}

// DecodeRuneAt reads the rune starting at byte i, with a single-byte fast
// path for ASCII. It does not inline (its cost is above the compiler's
// budget), so the per-byte scanners — AppendWords, textify's CountFields
// and appendCollapsed, langid's Scorer — test for ASCII in line and call
// utf8.DecodeRuneInString only for a multi-byte rune.
func DecodeRuneAt(s string, i int) (rune, int) {
	if c := s[i]; c < utf8.RuneSelf {
		return rune(c), 1
	}
	return utf8.DecodeRuneInString(s[i:])
}

func isWordRune(r rune) bool {
	if r < utf8.RuneSelf {
		return r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9'
	}
	return unicode.IsLetter(r) || unicode.IsDigit(r)
}

// lowerToken lowercases a token and folds the typographic apostrophe to
// ASCII, in one pass and one allocation.
func lowerToken(tok string) string {
	var b strings.Builder
	b.Grow(len(tok))
	for _, r := range tok {
		if r == '’' {
			b.WriteByte('\'')
			continue
		}
		b.WriteRune(unicode.ToLower(r))
	}
	return b.String()
}

// Sentences splits s into sentences on ., !, ? and ; boundaries, keeping
// abbreviation-like splits (single capital letters, "e.g.", "i.e.") intact.
// Sentences are returned as subslices of s — no per-sentence copies.
func Sentences(s string) []string {
	return appendSentences(nil, s)
}

// appendSentences appends the sentences of s to out and returns it, so a
// caller splitting many lines can reuse one slice.
func appendSentences(out []string, s string) []string {
	start := 0
	// The boundary characters are all ASCII, so a byte scan finds exactly
	// the positions a rune scan would (UTF-8 continuation bytes are ≥ 0x80).
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c != '.' && c != '!' && c != '?' && c != ';' {
			continue
		}
		if c == '.' {
			// Don't split inside "e.g.", "i.e.", "U.S." or single initials.
			tail := strings.ToLower(trailingWord(s[start : i+1]))
			if tail == "e.g." || tail == "i.e." || tail == "etc." ||
				(len(tail) == 2 && tail[1] == '.') {
				continue
			}
			// Don't split decimals like "3.5".
			if i > 0 && i+1 < len(s) && isDigitBefore(s, i) && isDigitAt(s, i+1) {
				continue
			}
		}
		sent := strings.TrimSpace(s[start : i+1])
		if sent != "" {
			out = append(out, sent)
		}
		start = i + 1
	}
	if rest := strings.TrimSpace(s[start:]); rest != "" {
		out = append(out, rest)
	}
	return out
}

// isDigitBefore reports whether the rune ending at byte i is a digit.
func isDigitBefore(s string, i int) bool {
	if c := s[i-1]; c < utf8.RuneSelf {
		return c >= '0' && c <= '9'
	}
	r, _ := utf8.DecodeLastRuneInString(s[:i])
	return unicode.IsDigit(r)
}

// isDigitAt reports whether the rune starting at byte i is a digit.
func isDigitAt(s string, i int) bool {
	r, _ := DecodeRuneAt(s, i)
	return unicode.IsDigit(r)
}

// trailingWord returns the suffix of s after the last whitespace rune.
func trailingWord(s string) string {
	i := len(s)
	for i > 0 {
		r, sz := utf8.DecodeLastRuneInString(s[:i])
		if unicode.IsSpace(r) {
			break
		}
		i -= sz
	}
	return s[i:]
}

// isCanonical reports whether s is already in Words-joined form: non-empty
// tokens of lowercase ASCII letters/digits separated by single spaces, with
// no leading or trailing space. For such strings Words(s) returns exactly
// the space-separated tokens, so Join(Words(s), " ") == s.
func isCanonical(s string) bool {
	if s == "" {
		return false
	}
	prevSpace := true // a space here would be leading/double
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c >= 'a' && c <= 'z' || c >= '0' && c <= '9':
			prevSpace = false
		case c == ' ':
			if prevSpace {
				return false
			}
			prevSpace = true
		default:
			return false
		}
	}
	return !prevSpace
}

// Normalize lowercases s and collapses whitespace and punctuation edges;
// it is the canonical form used for descriptor/glossary keys. Keys on the
// hot path are usually already canonical, in which case s is returned
// without allocating.
func Normalize(s string) string {
	if isCanonical(s) {
		return s
	}
	return strings.Join(Words(s), " ")
}

// NormalizeStemmed returns the stemmed canonical form ("email addresses" →
// "email address") used for repetition dedup and glossary lookup. Canonical
// input whose tokens are already singular is returned without allocating.
func NormalizeStemmed(s string) string {
	if isCanonical(s) {
		changed := false
		for i := 0; i < len(s); {
			j := strings.IndexByte(s[i:], ' ')
			var tok string
			if j < 0 {
				tok = s[i:]
				i = len(s)
			} else {
				tok = s[i : i+j]
				i += j + 1
			}
			if Singular(tok) != tok {
				changed = true
				break
			}
		}
		if !changed {
			return s
		}
	}
	ws := Words(s)
	for i, w := range ws {
		ws[i] = Singular(w)
	}
	return strings.Join(ws, " ")
}

// ContainsWords reports whether every word of phrase appears (stemmed) in
// text, in order, allowing gaps. This is the hallucination check the paper
// applies programmatically: "chatbot-generated annotations are indeed
// present in the privacy policy text", where extracted words "may be
// discontinuous".
func ContainsWords(text, phrase string) bool {
	tw := Words(text)
	for i := range tw {
		tw[i] = Singular(tw[i])
	}
	pw := Words(phrase)
	j := 0
	for _, w := range tw {
		if j < len(pw) && w == Singular(pw[j]) {
			j++
		}
	}
	return j == len(pw) && len(pw) > 0
}

// FindPhrase locates phrase in text allowing stems to differ in number and
// up to maxGap intervening words between consecutive phrase words. It
// returns the word-index span [start, end) in text, or ok=false.
func FindPhrase(text, phrase string, maxGap int) (start, end int, ok bool) {
	tw := Words(text)
	pw := Words(phrase)
	if len(pw) == 0 || len(tw) == 0 {
		return 0, 0, false
	}
	stemmed := make([]string, len(tw))
	for i, w := range tw {
		stemmed[i] = Singular(w)
	}
	target := make([]string, len(pw))
	for i, w := range pw {
		target[i] = Singular(w)
	}
	for i := 0; i <= len(stemmed)-1; i++ {
		if stemmed[i] != target[0] {
			continue
		}
		j, pos := 1, i
		for j < len(target) {
			found := -1
			for k := pos + 1; k <= pos+1+maxGap && k < len(stemmed); k++ {
				if stemmed[k] == target[j] {
					found = k
					break
				}
			}
			if found < 0 {
				break
			}
			pos = found
			j++
		}
		if j == len(target) {
			return i, pos + 1, true
		}
	}
	return 0, 0, false
}
