package serve

import (
	"container/list"
	"sync"
)

// cacheEntry is one memoized study: the rendered export bytes every
// result fetch serves verbatim — so a cache hit and the original response
// are byte-identical, not merely equivalent.
type cacheEntry struct {
	hash   string
	export []byte
}

// resultCache is an LRU over completed studies keyed by canonical config
// hash. Eviction is by entry count: entries are full study exports whose
// size varies by orders of magnitude with the spec, so a byte budget
// would punish big sweeps for being big; the operator sizes the count to
// the working set instead.
type resultCache struct {
	mu     sync.Mutex
	max    int
	ll     *list.List // front = most recently used; values are *cacheEntry
	items  map[string]*list.Element
	hits   uint64
	misses uint64
}

// newResultCache builds a cache holding up to max entries; max <= 0
// disables caching entirely (every lookup misses, nothing is stored) —
// the ablation mode philly-load's before/after baselines use.
func newResultCache(max int) *resultCache {
	return &resultCache{max: max, ll: list.New(), items: map[string]*list.Element{}}
}

// get returns the entry for hash, promoting it to most recently used.
func (c *resultCache) get(hash string) (*cacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[hash]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry), true
}

// put stores an entry, evicting from the LRU tail past capacity. A
// duplicate hash overwrites in place: both copies are provably identical,
// so last-writer-wins is safe.
func (c *resultCache) put(e *cacheEntry) {
	if c.max <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[e.hash]; ok {
		el.Value = e
		c.ll.MoveToFront(el)
		return
	}
	c.items[e.hash] = c.ll.PushFront(e)
	for c.ll.Len() > c.max {
		tail := c.ll.Back()
		c.ll.Remove(tail)
		delete(c.items, tail.Value.(*cacheEntry).hash)
	}
}

// stats returns (entries, hits, misses).
func (c *resultCache) stats() (int, uint64, uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len(), c.hits, c.misses
}
