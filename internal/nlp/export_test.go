package nlp

import "strings"

// SingularReference is Singular as it was before the shortcut for words
// not ending in 's', copied verbatim: the reference Singular is checked
// against.
func SingularReference(w string) string {
	if len(w) < 3 {
		return w
	}
	if s, ok := irregularPlurals[w]; ok {
		return s
	}
	if noSingular[w] {
		return w
	}
	switch {
	case strings.HasSuffix(w, "ies") && len(w) > 4:
		return w[:len(w)-3] + "y"
	case strings.HasSuffix(w, "sses"),
		strings.HasSuffix(w, "xes"),
		strings.HasSuffix(w, "zes"),
		strings.HasSuffix(w, "ches"),
		strings.HasSuffix(w, "shes"):
		return w[:len(w)-2]
	case strings.HasSuffix(w, "ss"), strings.HasSuffix(w, "us"), strings.HasSuffix(w, "is"):
		return w
	case strings.HasSuffix(w, "s"):
		return w[:len(w)-1]
	}
	return w
}

// SingularCases returns every irregularPlurals and noSingular key, the
// words Singular's lookups decide.
func SingularCases() []string {
	var out []string
	for w := range irregularPlurals {
		out = append(out, w)
	}
	for w := range noSingular {
		out = append(out, w)
	}
	return out
}
