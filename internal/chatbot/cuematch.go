package chatbot

import (
	"sync"

	"aipan/internal/taxonomy"
)

// The labeling paths used to probe every cue of every label with
// strings.Contains — tens of substring scans per input line, a
// double-digit share of pipeline CPU. cueAutomaton is a byte-level
// Aho–Corasick matcher (substring semantics, no word boundaries — exactly
// what Contains tested) that finds all cue occurrences in one pass; it is
// the repo's only automaton, and cuematch_test.go pins it to the Contains
// loops. Edges are slices, so construction is deterministic.

type cueEdge struct {
	c  byte
	to int32
}

type cueOut struct {
	pat int32 // index into the owner's pattern table
}

type cueNode struct {
	edges []cueEdge
	fail  int32
	out   []cueOut
}

// cueAutomaton stores the automaton as a fully-dense DFA: next[st*256+c] is
// the goto-with-failure transition, so scanning is one table load per input
// byte with no fail-chain walk. The cue sets are small (hundreds of nodes),
// so the tables cost a few hundred KB each, built once.
type cueAutomaton struct {
	next []int32
	out  [][]cueOut
}

func (n *cueNode) edge(c byte) (int32, bool) {
	for _, e := range n.edges {
		if e.c == c {
			return e.to, true
		}
	}
	return 0, false
}

func newCueAutomaton(patterns []string) *cueAutomaton {
	nodes := make([]cueNode, 1, 64)
	insert := func(pat string, id int32) {
		st := int32(0)
		for i := 0; i < len(pat); i++ {
			c := pat[i]
			nxt, ok := nodes[st].edge(c)
			if !ok {
				nxt = int32(len(nodes))
				nodes[st].edges = append(nodes[st].edges, cueEdge{c: c, to: nxt})
				nodes = append(nodes, cueNode{})
			}
			st = nxt
		}
		nodes[st].out = append(nodes[st].out, cueOut{pat: id})
	}
	for i, p := range patterns {
		if p != "" {
			insert(p, int32(i))
		}
	}

	// BFS fail links, merging each node's fail-target outputs.
	queue := make([]int32, 0, len(nodes))
	for _, e := range nodes[0].edges {
		nodes[e.to].fail = 0
		queue = append(queue, e.to)
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, e := range nodes[cur].edges {
			queue = append(queue, e.to)
			f := nodes[cur].fail
			for f != 0 {
				if g, ok := nodes[f].edge(e.c); ok {
					f = g
					break
				}
				f = nodes[f].fail
			}
			if f == 0 {
				if g, ok := nodes[0].edge(e.c); ok {
					f = g
				}
			}
			nodes[e.to].fail = f
			nodes[e.to].out = append(nodes[e.to].out, nodes[f].out...)
		}
	}

	// Flatten to the dense transition table, again in BFS order so parent
	// rows are complete before children copy from their fail rows.
	a := &cueAutomaton{
		next: make([]int32, len(nodes)*256),
		out:  make([][]cueOut, len(nodes)),
	}
	for st := range nodes {
		a.out[st] = nodes[st].out
	}
	for _, e := range nodes[0].edges {
		a.next[int(e.c)] = e.to
	}
	queue = queue[:0]
	for _, e := range nodes[0].edges {
		queue = append(queue, e.to)
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		row := a.next[int(cur)*256 : int(cur)*256+256]
		copy(row, a.next[int(nodes[cur].fail)*256:int(nodes[cur].fail)*256+256])
		for _, e := range nodes[cur].edges {
			row[e.c] = e.to
			queue = append(queue, e.to)
		}
	}
	return a
}

// scan calls fn for every pattern occurrence in s (by end position);
// returning false from fn stops the scan early.
func (a *cueAutomaton) scan(s string, fn func(pat int32) bool) {
	st := int32(0)
	for i := 0; i < len(s); i++ {
		st = a.next[int(st)<<8|int(s[i])]
		for _, o := range a.out[st] {
			if !fn(o.pat) {
				return
			}
		}
	}
}

// cueRef ties a compiled pattern back to its label and position in that
// label's cue list (cue-list order breaks length ties, matching the old
// first-longest-wins scan).
type cueRef struct {
	label  int32
	cueIdx int32
	cue    string
}

// labelMatcher matches one label group's cues.
type labelMatcher struct {
	labels []taxonomy.Label
	pats   []cueRef
	ac     *cueAutomaton
}

func newLabelMatcher(labels []taxonomy.Label) *labelMatcher {
	m := &labelMatcher{labels: labels}
	var patterns []string
	for li, l := range labels {
		for ci, c := range l.Cues {
			m.pats = append(m.pats, cueRef{label: int32(li), cueIdx: int32(ci), cue: c})
			patterns = append(patterns, c)
		}
	}
	m.ac = newCueAutomaton(patterns)
	return m
}

// any reports whether low contains any cue of the group.
func (m *labelMatcher) any(low string) bool {
	found := false
	m.ac.scan(low, func(int32) bool {
		found = true
		return false
	})
	return found
}

type labelCue struct{ Label, Cue string }

// match returns (label, matched cue) pairs found in low, in label order,
// picking per label the longest cue (earliest in the cue list on ties) —
// the same selection the per-cue Contains loop produced.
func (m *labelMatcher) match(low string) []labelCue {
	best := make([]int32, len(m.labels))
	for i := range best {
		best[i] = -1
	}
	m.ac.scan(low, func(p int32) bool {
		ref := &m.pats[p]
		cur := best[ref.label]
		if cur < 0 {
			best[ref.label] = p
			return true
		}
		old := &m.pats[cur]
		if len(ref.cue) > len(old.cue) ||
			(len(ref.cue) == len(old.cue) && ref.cueIdx < old.cueIdx) {
			best[ref.label] = p
		}
		return true
	})
	var out []labelCue
	for li, l := range m.labels {
		if best[li] >= 0 {
			out = append(out, labelCue{Label: l.Name, Cue: m.pats[best[li]].cue})
		}
	}
	return out
}

// The four Table 1 label groups, compiled once.
var (
	retentionMatcher  = sync.OnceValue(func() *labelMatcher { return newLabelMatcher(retentionLabels()) })
	protectionMatcher = sync.OnceValue(func() *labelMatcher { return newLabelMatcher(protectionLabels()) })
	choiceMatcher     = sync.OnceValue(func() *labelMatcher { return newLabelMatcher(choiceLabels()) })
	accessMatcher     = sync.OnceValue(func() *labelMatcher { return newLabelMatcher(accessLabels()) })
)

// headingMatcher compiles the heading-rule cues; each pattern id is the
// rule index, and hits are reported per rule in rule order.
type headingMatcher struct {
	rules []aspectRule
	ac    *cueAutomaton
	pats  []int32 // pattern → rule index
}

func newHeadingMatcher(rules []aspectRule) *headingMatcher {
	m := &headingMatcher{rules: rules}
	var patterns []string
	for ri, r := range rules {
		for _, c := range r.cues {
			m.pats = append(m.pats, int32(ri))
			patterns = append(patterns, c)
		}
	}
	m.ac = newCueAutomaton(patterns)
	return m
}

// classify returns the aspect labels of rules with at least one cue hit,
// in rule order — what the per-rule Contains loop returned.
func (m *headingMatcher) classify(low string) []string {
	var hits [16]bool
	m.ac.scan(low, func(p int32) bool {
		hits[m.pats[p]] = true
		return true
	})
	var labels []string
	for ri, r := range m.rules {
		if hits[ri] {
			labels = append(labels, string(r.aspect))
		}
	}
	return labels
}

var headingRuleMatcher = sync.OnceValue(func() *headingMatcher { return newHeadingMatcher(headingRules) })
