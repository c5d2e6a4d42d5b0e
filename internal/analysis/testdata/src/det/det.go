// Package det is the determinism checker's golden corpus: each site
// marked `// want <regex>` must produce exactly that finding, and the
// unmarked sites are the sanctioned patterns that must stay silent.
package det

import (
	"math/rand"
	"sort"
	"time"
)

func clock() time.Time {
	return time.Now() // want call to time\.Now in deterministic package
}

func draw() int {
	return rand.Intn(10) // want global math/rand source \(rand\.Intn\)
}

// seeded is the allowlisted pattern: an explicit seeded source.
func seeded(seed int64) int {
	r := rand.New(rand.NewSource(seed))
	return r.Intn(10)
}

func keysUnsorted(m map[string]int) []string {
	var out []string
	for k := range m { // want map iteration appending to a slice without a following sort
		out = append(out, k)
	}
	return out
}

// keysSorted is the sanctioned collect-then-sort pattern.
func keysSorted(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// sum accumulates commutatively; iteration order cannot leak.
func sum(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

type entry struct{ name string }

// closestUnsorted keeps the first of several equally close keys the map
// happens to yield.
func closestUnsorted(m map[string]int, target int) string {
	best, bestDist := "", -1
	for k, v := range m { // want map iteration assigning the range key or value to best \(a first- or last-wins pick\)
		if d := (v - target) * (v - target); bestDist < 0 || d < bestDist {
			best, bestDist = k, d
		}
	}
	return best
}

// lastName keeps a field of whichever value the map yields last.
func lastName(m map[int]*entry) string {
	name := ""
	for _, e := range m { // want map iteration assigning the range key or value to name
		name = e.name
	}
	return name
}

// closestSorted is the sanctioned pick: range over sorted keys, so ties
// go to the smallest key.
func closestSorted(m map[string]int, target int) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	best, bestDist := "", -1
	for _, k := range keys {
		if d := (m[k] - target) * (m[k] - target); bestDist < 0 || d < bestDist {
			best, bestDist = k, d
		}
	}
	return best
}

// pickThenSort is still a pick: the sort after the loop orders out, and
// no sort can reorder a value the loop already chose.
func pickThenSort(m map[string]int, out []string) string {
	last := ""
	for k := range m { // want map iteration assigning the range key or value to last \(a first- or last-wins pick\) leaks
		last = k
	}
	sort.Strings(out)
	return last
}

// invert writes into a map and counts: neither is a pick.
func invert(m map[string]int) (map[int]string, int) {
	inv := map[int]string{}
	n := 0
	for k, v := range m {
		inv[v] = k
		n += v
		local := k
		_ = local
	}
	return inv, n
}

// loopLocal assigns only variables declared inside the loop body.
func loopLocal(m map[string]int) int {
	total := 0
	for _, v := range m {
		x := 0
		x = v
		total += x
	}
	return total
}
