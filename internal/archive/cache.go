package archive

import (
	"container/list"
	"sync"

	"enviromic/internal/flash"
	"enviromic/internal/retrieval"
)

// fileCache is the LRU reassembly cache: fileID -> reassembled
// retrieval.File, bounded by approximate payload bytes. Entries carry the
// file's index version at build time; Store.File compares it against the
// live version, so an entry that survived an ingest (the invalidate only
// races, never guards) is still never served stale.
type fileCache struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	ll       *list.List // front = most recent
	items    map[flash.FileID]*list.Element

	// evictions is the cache's only counter: hits and misses are counted
	// by Store.File, which alone knows whether an entry's version is live.
	evictions int64
}

type cacheEntry struct {
	id      flash.FileID
	version uint64
	f       *retrieval.File
	bytes   int64
}

// newFileCache returns a cache bounded by maxBytes; negative disables
// caching entirely (every get misses, every put is dropped).
func newFileCache(maxBytes int64) *fileCache {
	return &fileCache{
		maxBytes: maxBytes,
		ll:       list.New(),
		items:    make(map[flash.FileID]*list.Element),
	}
}

func (fc *fileCache) disabled() bool { return fc.maxBytes < 0 }

// get returns the cached file and its build version.
func (fc *fileCache) get(id flash.FileID) (*retrieval.File, uint64, bool) {
	if fc.disabled() {
		return nil, 0, false
	}
	fc.mu.Lock()
	defer fc.mu.Unlock()
	el, ok := fc.items[id]
	if !ok {
		return nil, 0, false
	}
	fc.ll.MoveToFront(el)
	e := el.Value.(*cacheEntry)
	return e.f, e.version, true
}

// put inserts (or replaces) the entry and evicts from the LRU tail until
// the byte bound holds again; the fresh entry itself is never evicted.
func (fc *fileCache) put(id flash.FileID, version uint64, f *retrieval.File) {
	if fc.disabled() {
		return
	}
	size := int64(f.Bytes()) + int64(len(f.Chunks))*64 // payload + struct overhead estimate
	fc.mu.Lock()
	defer fc.mu.Unlock()
	if el, ok := fc.items[id]; ok {
		fc.removeLocked(el)
	}
	e := &cacheEntry{id: id, version: version, f: f, bytes: size}
	fc.items[id] = fc.ll.PushFront(e)
	fc.bytes += size
	for fc.bytes > fc.maxBytes && fc.ll.Len() > 1 {
		fc.removeLocked(fc.ll.Back())
		fc.evictions++
	}
}

// invalidate drops the entry for id (prompt memory release on ingest;
// correctness comes from the version check).
func (fc *fileCache) invalidate(id flash.FileID) {
	if fc.disabled() {
		return
	}
	fc.mu.Lock()
	defer fc.mu.Unlock()
	if el, ok := fc.items[id]; ok {
		fc.removeLocked(el)
	}
}

func (fc *fileCache) removeLocked(el *list.Element) {
	e := el.Value.(*cacheEntry)
	fc.ll.Remove(el)
	delete(fc.items, e.id)
	fc.bytes -= e.bytes
}

// stats snapshots the cache's occupancy and evictions (Hits and Misses
// are left for the store to fill in).
func (fc *fileCache) stats() CacheStats {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	return CacheStats{
		Entries:   fc.ll.Len(),
		Bytes:     fc.bytes,
		Evictions: fc.evictions,
	}
}
