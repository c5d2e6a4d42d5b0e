package htmlx

// impliedEnd maps an element name to the set of open element names that an
// occurrence of it implicitly closes (HTML's optional end tags).
var impliedEnd = map[string]map[string]bool{
	"li":       {"li": true},
	"dt":       {"dt": true, "dd": true},
	"dd":       {"dt": true, "dd": true},
	"tr":       {"tr": true, "td": true, "th": true},
	"td":       {"td": true, "th": true},
	"th":       {"td": true, "th": true},
	"thead":    {"thead": true, "tbody": true, "tfoot": true, "tr": true, "td": true, "th": true},
	"tbody":    {"thead": true, "tbody": true, "tfoot": true, "tr": true, "td": true, "th": true},
	"tfoot":    {"thead": true, "tbody": true, "tfoot": true, "tr": true, "td": true, "th": true},
	"option":   {"option": true},
	"optgroup": {"option": true, "optgroup": true},
}

// blockStarters are elements whose start tag implicitly closes an open <p>.
var blockStarters = map[string]bool{
	"address": true, "article": true, "aside": true, "blockquote": true,
	"details": true, "div": true, "dl": true, "fieldset": true,
	"figcaption": true, "figure": true, "footer": true, "form": true,
	"h1": true, "h2": true, "h3": true, "h4": true, "h5": true, "h6": true,
	"header": true, "hr": true, "main": true, "menu": true, "nav": true,
	"ol": true, "p": true, "pre": true, "section": true, "table": true,
	"ul": true,
}

// nodeArena hands out Nodes from chunked slabs: one heap allocation per
// chunk instead of one per node. Nodes from one Parse call share slabs and
// die together with the tree, so the arena never frees individually.
type nodeArena struct {
	chunk []Node
}

// arenaChunk sizes the slab: a typical policy page parses to a few
// thousand nodes, so chunks stay small enough not to strand memory on
// tiny fragments while cutting allocation count ~256×.
const arenaChunk = 256

func (a *nodeArena) new(t NodeType, data string, attr []Attribute) *Node {
	if len(a.chunk) == 0 {
		a.chunk = make([]Node, arenaChunk)
	}
	n := &a.chunk[0]
	a.chunk = a.chunk[1:]
	n.Type, n.Data, n.Attr = t, data, attr
	return n
}

// Parse builds a Node tree from HTML source. It never returns an error:
// malformed input yields the most sensible tree we can construct.
//
// Work is linear in the input, hostile input included. open counts the
// elements of each name on the stack (a name leaves it when its count
// falls to zero), so an end tag whose name is not open, and a block start
// with no open <p>, skip the stack scan. A scan
// that does run reaches its match and pops every element it passes: no
// block starter is ever pushed above an open <p> without closing it
// first, so the <p> search never stops short.
func Parse(src string) *Node {
	var arena nodeArena
	doc := arena.new(DocumentNode, "", nil)
	stack := []*Node{doc}
	top := func() *Node { return stack[len(stack)-1] }
	open := map[string]int{}
	popTo := func(i int) {
		for _, n := range stack[i:] {
			if open[n.Data]--; open[n.Data] == 0 {
				delete(open, n.Data)
			}
		}
		stack = stack[:i]
	}

	z := NewTokenizer(src)
	for {
		tok := z.Next()
		if tok.Type == ErrorToken {
			break
		}
		switch tok.Type {
		case TextToken:
			if tok.Data == "" {
				continue
			}
			top().AppendChild(arena.new(TextNode, tok.Data, nil))
		case CommentToken:
			top().AppendChild(arena.new(CommentNode, tok.Data, nil))
		case DoctypeToken:
			top().AppendChild(arena.new(DoctypeNode, tok.Data, nil))
		case SelfClosingTagToken:
			n := arena.new(ElementNode, tok.Data, tok.Attr)
			top().AppendChild(n)
		case StartTagToken:
			name := tok.Data
			// Apply implied end tags.
			if closes, ok := impliedEnd[name]; ok {
				for len(stack) > 1 && closes[top().Data] {
					popTo(len(stack) - 1)
				}
			}
			if blockStarters[name] && open["p"] > 0 {
				// A block element closes the open <p>.
				for i := len(stack) - 1; i > 0; i-- {
					if stack[i].Data == "p" {
						popTo(i)
						break
					}
				}
			}
			n := arena.new(ElementNode, name, tok.Attr)
			top().AppendChild(n)
			if !IsVoid(name) {
				stack = append(stack, n)
				open[name]++
			}
		case EndTagToken:
			name := tok.Data
			if open[name] == 0 {
				continue // no matching open element (void ones never are): ignore
			}
			for i := len(stack) - 1; i > 0; i-- {
				if stack[i].Data == name {
					popTo(i)
					break
				}
			}
		}
	}
	return doc
}
