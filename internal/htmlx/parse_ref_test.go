package htmlx

// parseReference is the plain two-scan parser whose trees Parse must
// reproduce (FuzzParse). Both of its stack scans walk from the top on
// every block start and every end tag, whether or not a match is open,
// so it is quadratic on hostile input; only small inputs go through it.
func parseReference(src string) *Node {
	var arena nodeArena
	doc := arena.new(DocumentNode, "", nil)
	stack := []*Node{doc}
	top := func() *Node { return stack[len(stack)-1] }

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
					stack = stack[:len(stack)-1]
				}
			}
			if blockStarters[name] {
				// A block element closes an open <p> (but only the nearest).
				for i := len(stack) - 1; i > 0; i-- {
					if stack[i].Data == "p" {
						stack = stack[:i]
						break
					}
					if blockStarters[stack[i].Data] && stack[i].Data != "p" {
						break
					}
				}
			}
			n := arena.new(ElementNode, name, tok.Attr)
			top().AppendChild(n)
			if !IsVoid(name) {
				stack = append(stack, n)
			}
		case EndTagToken:
			name := tok.Data
			if IsVoid(name) {
				continue
			}
			// Find the nearest matching open element; if none, ignore.
			for i := len(stack) - 1; i > 0; i-- {
				if stack[i].Data == name {
					stack = stack[:i]
					break
				}
			}
		}
	}
	return doc
}
