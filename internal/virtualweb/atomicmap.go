package virtualweb

import (
	"container/list"
	"sync"

	"aipan/internal/webgen"
)

// defaultRenderCacheCap bounds the render cache. It comfortably holds
// the full AIPAN-3k corpus (2,892 domains), so default-universe runs
// behave exactly as the old unbounded cache did; at 100k–1M domains it
// is what keeps the transport's memory flat — a crawled domain's pages
// are dead weight the moment its crawl completes, so LRU eviction costs
// at most a re-render on the rare revisit.
const defaultRenderCacheCap = 4096

// renderCache is a bounded LRU over rendered sites, keyed by host.
type renderCache struct {
	mu sync.Mutex
	m  map[string]*list.Element
	l  list.List // front = most recently used
}

type renderEntry struct {
	host  string
	pages map[string]webgen.Page
}

func (c *renderCache) load(host string) (map[string]webgen.Page, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[host]
	if !ok {
		return nil, false
	}
	c.l.MoveToFront(el)
	return el.Value.(*renderEntry).pages, true
}

func (c *renderCache) store(host string, pages map[string]webgen.Page) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m == nil {
		c.m = map[string]*list.Element{}
	}
	if el, ok := c.m[host]; ok {
		el.Value.(*renderEntry).pages = pages
		c.l.MoveToFront(el)
		return
	}
	c.m[host] = c.l.PushFront(&renderEntry{host: host, pages: pages})
	for c.l.Len() > defaultRenderCacheCap {
		last := c.l.Back()
		c.l.Remove(last)
		delete(c.m, last.Value.(*renderEntry).host)
	}
}
