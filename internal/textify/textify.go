// Package textify converts parsed HTML into annotated plain text, playing
// the role the inscriptis library plays in the paper (§3.2.1): it renders
// block-level layout into lines and records, for every line, whether it was
// an <h1>..<h6> heading or a standalone bold line — the two signals the
// paper's segmentation step (Appendix B) relies on.
package textify

import (
	"strconv"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"

	"aipan/internal/htmlx"
)

// Line is one rendered line of text with layout metadata.
type Line struct {
	// Number is the 1-based line number used in chatbot prompts ("[12]").
	Number int
	// Text is the rendered text of the line, whitespace-collapsed.
	Text string
	// HeadingLevel is 1..6 for text inside <h1>..<h6>, 0 otherwise.
	HeadingLevel int
	// Bold reports that every character on the line came from inside
	// <b>/<strong> (the "bold text on a separate line" heading heuristic).
	Bold bool
	// ListItem reports the line began a <li>.
	ListItem bool
}

// IsHeading reports whether the line should be treated as a section heading
// per Appendix B: an <h1>..<h6> line, or an all-bold standalone line.
func (l Line) IsHeading() bool {
	return l.HeadingLevel > 0 || (l.Bold && l.Text != "" && !l.ListItem)
}

// EffectiveLevel returns the heading hierarchy level: 1..6 for <hN>, 7 for
// standalone bold lines (which the paper ranks below <h6>), 0 for body text.
func (l Line) EffectiveLevel() int {
	if l.HeadingLevel > 0 {
		return l.HeadingLevel
	}
	if l.Bold && l.Text != "" && !l.ListItem {
		return 7
	}
	return 0
}

// Document is the rendered form of a page.
type Document struct {
	Title string
	Lines []Line
}

// Text returns the plain text, one line per Line.
func (d *Document) Text() string {
	size := 0
	for _, l := range d.Lines {
		size += len(l.Text) + 1
	}
	var b strings.Builder
	b.Grow(size)
	for i, l := range d.Lines {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(l.Text)
	}
	return b.String()
}

// NumberedText renders the document in the "[n] text" format the paper's
// prompts require. It sizes the output once and appends line numbers
// without fmt, so the whole rendering is a single allocation.
func (d *Document) NumberedText() string {
	size := 0
	for _, l := range d.Lines {
		size += len(l.Text) + 12 // "[n] " + text + "\n"
	}
	buf := make([]byte, 0, size)
	for _, l := range d.Lines {
		buf = AppendNumbered(buf, l.Number, l.Text)
	}
	return string(buf)
}

// AppendNumbered appends one "[n] text\n" prompt line to buf — the shared
// byte-path formatting primitive (segment's section renderers reuse it).
func AppendNumbered(buf []byte, n int, text string) []byte {
	buf = append(buf, '[')
	buf = strconv.AppendInt(buf, int64(n), 10)
	buf = append(buf, ']', ' ')
	buf = append(buf, text...)
	return append(buf, '\n')
}

// WordCount returns the total number of whitespace-delimited words.
func (d *Document) WordCount() int {
	n := 0
	for _, l := range d.Lines {
		n += CountFields(l.Text)
	}
	return n
}

// CountFields counts whitespace-delimited fields like len(strings.Fields)
// without building the slice.
func CountFields(s string) int {
	n := 0
	inField := false
	for i := 0; i < len(s); {
		r, sz := rune(s[i]), 1
		if r >= utf8.RuneSelf {
			r, sz = utf8.DecodeRuneInString(s[i:])
		}
		if isSpaceRune(r) {
			inField = false
		} else if !inField {
			inField = true
			n++
		}
		i += sz
	}
	return n
}

// LineByNumber returns the line with the given number, or a zero Line.
func (d *Document) LineByNumber(n int) (Line, bool) {
	i := n - 1
	if i < 0 || i >= len(d.Lines) {
		return Line{}, false
	}
	return d.Lines[i], true
}

// blockElements force a line break before and after their content.
var blockElements = map[string]bool{
	"address": true, "article": true, "aside": true, "blockquote": true,
	"div": true, "dl": true, "dd": true, "dt": true, "fieldset": true,
	"figure": true, "figcaption": true, "footer": true, "form": true,
	"h1": true, "h2": true, "h3": true, "h4": true, "h5": true, "h6": true,
	"header": true, "hr": true, "li": true, "main": true, "nav": true,
	"ol": true, "p": true, "pre": true, "section": true, "table": true,
	"tr": true, "ul": true, "details": true, "summary": true,
}

// skipElements are never rendered.
var skipElements = map[string]bool{
	"script": true, "style": true, "noscript": true, "head": true,
	"iframe": true, "svg": true, "template": true, "select": true,
	"button": true,
}

// renderer accumulates the current line in a reused byte buffer and emits
// completed Lines directly. One renderer (and its scratch capacity) is
// recycled across Render calls via rendererPool; the only per-line
// allocation left is the final Text string.
type renderer struct {
	lines      []Line
	cur        []byte
	sawBold    bool
	sawPlain   bool
	headingLvl int
	listItem   bool
}

var rendererPool = sync.Pool{New: func() any { return new(renderer) }}

func (r *renderer) breakLine() {
	// cur holds whitespace-collapsed fields joined by ASCII spaces (plus
	// table spacers), so only trailing ' ' bytes can need trimming and a
	// byte-level trim matches strings.TrimSpace exactly.
	text := r.cur
	for len(text) > 0 && text[len(text)-1] == ' ' {
		text = text[:len(text)-1]
	}
	for len(text) > 0 && text[0] == ' ' {
		text = text[1:]
	}
	if len(text) > 0 {
		r.lines = append(r.lines, Line{
			Number:       len(r.lines) + 1,
			Text:         string(text),
			HeadingLevel: r.headingLvl,
			Bold:         r.sawBold && !r.sawPlain,
			ListItem:     r.listItem,
		})
	}
	r.cur = r.cur[:0]
	r.sawBold, r.sawPlain, r.listItem = false, false, false
	r.headingLvl = 0
}

func (r *renderer) appendText(s string, boldDepth, headingLvl int) {
	var wrote bool
	r.cur, wrote = appendCollapsed(r.cur, s)
	if !wrote {
		return
	}
	if boldDepth > 0 {
		r.sawBold = true
	} else {
		r.sawPlain = true
	}
	if headingLvl > r.headingLvl {
		r.headingLvl = headingLvl
	}
}

// appendCollapsed appends the whitespace-delimited fields of s to dst,
// separated by single spaces (also from any existing dst content). It
// replicates strings.Fields' notion of whitespace, including multi-byte
// runes like   from &nbsp;. wrote reports whether any field was added.
func appendCollapsed(dst []byte, s string) ([]byte, bool) {
	wrote := false
	for i := 0; i < len(s); {
		r, sz := rune(s[i]), 1
		if r >= utf8.RuneSelf {
			r, sz = utf8.DecodeRuneInString(s[i:])
		}
		if isSpaceRune(r) {
			i += sz
			continue
		}
		start := i
		i += sz
		for i < len(s) {
			r, sz = rune(s[i]), 1
			if r >= utf8.RuneSelf {
				r, sz = utf8.DecodeRuneInString(s[i:])
			}
			if isSpaceRune(r) {
				break
			}
			i += sz
		}
		if len(dst) > 0 {
			dst = append(dst, ' ')
		}
		dst = append(dst, s[start:i]...)
		wrote = true
	}
	return dst, wrote
}

func isSpaceRune(r rune) bool {
	if r < utf8.RuneSelf {
		return r == ' ' || r == '\t' || r == '\n' || r == '\v' || r == '\f' || r == '\r'
	}
	return unicode.IsSpace(r)
}

func (r *renderer) walk(n *htmlx.Node, boldDepth, headingLvl int) {
	switch n.Type {
	case htmlx.TextNode:
		r.appendText(n.Data, boldDepth, headingLvl)
		return
	case htmlx.CommentNode, htmlx.DoctypeNode:
		return
	case htmlx.ElementNode:
		name := n.Data
		if skipElements[name] {
			return
		}
		if name == "title" {
			return // handled separately
		}
		if name == "br" {
			r.breakLine()
			return
		}
		isBlock := blockElements[name]
		if isBlock {
			r.breakLine()
		}
		switch name {
		case "b", "strong":
			boldDepth++
		case "h1", "h2", "h3", "h4", "h5", "h6":
			headingLvl = int(name[1] - '0')
		case "li":
			r.listItem = true
			r.appendText("*", boldDepth, headingLvl)
			// reset sawPlain: the bullet itself shouldn't count as plain text
			// for bold-line detection, but keeping it is harmless since list
			// items are excluded from the bold-heading heuristic anyway.
		case "td", "th":
			// Cells are joined on the row's line with a spacer.
			if len(r.cur) > 0 {
				r.cur = append(r.cur, ' ', ' ')
			}
		}
		for c := n.FirstChild; c != nil; c = c.NextSibling {
			r.walk(c, boldDepth, headingLvl)
		}
		if isBlock {
			r.breakLine()
		}
	case htmlx.DocumentNode:
		for c := n.FirstChild; c != nil; c = c.NextSibling {
			r.walk(c, boldDepth, headingLvl)
		}
	}
}

// Render converts a parsed HTML tree into a Document.
func Render(root *htmlx.Node) *Document {
	r := rendererPool.Get().(*renderer)
	r.walk(root, 0, 0)
	r.breakLine()

	doc := &Document{Lines: r.lines}
	if t := root.Find(func(n *htmlx.Node) bool { return n.IsElement("title") }); t != nil {
		doc.Title = t.Text()
	}
	// Hand the lines slice to the Document; keep the scratch capacity.
	r.lines = nil
	rendererPool.Put(r)
	return doc
}

// RenderHTML parses src and renders it in one step.
func RenderHTML(src string) *Document {
	return Render(htmlx.Parse(src))
}
