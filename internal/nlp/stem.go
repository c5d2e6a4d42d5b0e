package nlp

import "strings"

// irregularPlurals maps common irregular plurals seen in privacy policies.
var irregularPlurals = map[string]string{
	"children": "child",
	"people":   "person",
	"men":      "man",
	"women":    "woman",
	"feet":     "foot",
	"teeth":    "tooth",
	"geese":    "goose",
	"mice":     "mouse",
	"criteria": "criterion",
	"data":     "data", // treated as its own lemma
	"media":    "media",
	"analyses": "analysis",
	"bases":    "basis",
	"statuses": "status",
	"viruses":  "virus",
	"cookies":  "cookie",
	"sses":     "sses",
}

// noSingular lists words ending in 's' that are not plurals. Singular's
// shortcut for words not ending in 's' relies on every entry ending in
// one.
var noSingular = map[string]bool{
	"address": true, "business": true, "access": true, "process": true,
	"wireless": true, "express": true, "analysis": true, "basis": true,
	"status": true, "bus": true, "plus": true, "gps": true, "sms": true,
	"https": true, "was": true, "is": true, "this": true, "its": true,
	"as": true, "us": true, "various": true, "anonymous": true,
	"previous": true, "always": true, "news": true, "ios": true,
	"wellness": true, "fitness": true, "press": true, "dss": true,
	"isps": true, "ss": true, "yes": true, "his": true, "hers": true,
	"aws": true, "tls": true, "dns": true, "sos": true, "campus": true,
	"series": true, "wages": true,
}

// Singular reduces a lowercase word to a singular-ish lemma. It is a
// conservative S-stemmer tuned for matching privacy-policy vocabulary:
// "addresses"→"address", "cookies"→"cookie", "identifiers"→"identifier",
// while leaving "address", "business", "status" untouched.
func Singular(w string) string {
	if len(w) < 3 {
		return w
	}
	if s, ok := irregularPlurals[w]; ok {
		return s
	}
	if w[len(w)-1] != 's' {
		// Every noSingular entry and every suffix rule below ends in
		// 's', so a word that does not, and is no irregular plural, is
		// its own lemma.
		return w
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
