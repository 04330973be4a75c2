package fleet

// The result cache is content-keyed and single-flight: the first request
// for a key computes it on the caller's goroutine, concurrent requests for
// the same key block until that computation finishes, and later requests
// reuse the stored result. Keys must uniquely encode everything the
// computation depends on — the experiment id, its Options, and the seed —
// so a hit is always safe to substitute for a recompute.

type cacheEntry struct {
	ready chan struct{}
	value any
	err   error
}

// Do memoizes compute under key with single-flight semantics, attributing
// the hit or miss to this group. It reports whether the result came from
// the cache.
func (g *Group) Do(key string, compute func() (any, error)) (any, bool, error) {
	p := g.pool
	p.cacheMu.Lock()
	if e, ok := p.cache[key]; ok {
		p.cacheMu.Unlock()
		<-e.ready
		p.noteCache(g, key, true)
		return e.value, true, e.err
	}
	e := &cacheEntry{ready: make(chan struct{})}
	p.cache[key] = e
	p.cacheMu.Unlock()
	p.noteCache(g, key, false)
	// safeRun converts a panicking compute into an error so waiters on
	// e.ready never block forever; the stored error replays to every
	// later request for the key.
	e.value, e.err = safeRun(compute)
	close(e.ready)
	return e.value, false, e.err
}
