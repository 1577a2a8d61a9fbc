package pisa

import (
	"container/list"
	"fmt"
	"sync"

	"pisa/internal/paillier"
)

// suKeyCacheEntries bounds an SUKeyCache. An entry the license tail has
// encrypted under holds one lean nonce table (63 KiB at a 2048-bit key,
// see paillier.PublicKey.PrepareLean), so a full cache is at most about
// 126 MiB there, and pisa_sdc_sukey_cache_entries shows how close to
// the bound it is. A fleet larger than this pays one fetch and one table
// build (about 3 ms) per eviction, never a wrong answer. A windowed
// shard only multiplies modulo n^2 and builds no table.
const suKeyCacheEntries = 2048

// SUKeyCache is the SDC-side (and router-side) view of the STP's SU key
// registry: id -> the key object the request path multiplies and
// encrypts under. It exists because STPService.SUKey is a remote call
// in a networked deployment and what comes back is bare — a gob-decoded
// key with only the modulus and the SU's nonce base H set, whose
// derived fields would otherwise be filled lazily by whichever worker
// goroutines get there first. The cache fetches each id once and checks
// and prepares the key before any worker sees it; the key tables its H
// in the lean comb on its first nonce (the license tail draws one per
// request). A key an in-process STP hands out is its registry's
// prepared copy and is reused as it is, table included.
//
// Caching is sound because a registration is immutable per id
// (RegisterSU refuses a different key for a known id). Should the STP
// nevertheless come to hold another key — it lost its registry and the
// SU registered afresh — a stale entry fails closed: the STP encrypts
// the sign values under the key it holds; the SDC either rejects them
// as out of range for the stale modulus or combines them modulo the
// stale key's n^2 and encrypts the license under the stale key, and
// that decrypts to noise under either secret key. The request fails or
// the SU cannot open the response; no license is ever granted wrongly. Restarting the
// SDC (or evicting the entry) heals it.
//
// Every entry, a fetch in flight included, counts in the process-wide
// gauge pisa_sdc_sukey_cache_entries from its insertion to its eviction,
// its failed fetch's removal or clear.
//
// Safe for concurrent use; concurrent misses on one id share a single
// fetch.
type SUKeyCache struct {
	stp STPService
	cap int

	mu   sync.Mutex
	lru  *list.List // front = most recently used; values are *suKeyEntry
	byID map[string]*list.Element
}

// suKeyEntry is one cached key, or one fetch in flight: pk and err are
// written before ready is closed and only read after.
type suKeyEntry struct {
	id    string
	ready chan struct{}
	pk    *paillier.PublicKey
	err   error
}

// newSUKeyCache builds an empty cache over stp.
func newSUKeyCache(stp STPService) *SUKeyCache {
	return &SUKeyCache{
		stp:  stp,
		cap:  suKeyCacheEntries,
		lru:  list.New(),
		byID: make(map[string]*list.Element),
	}
}

// Get returns the prepared key of the SU. The first call for an id asks
// the STP; an STP error is returned to everyone waiting on that fetch
// and not cached.
func (c *SUKeyCache) Get(id string) (*paillier.PublicKey, error) {
	m := metrics()
	c.mu.Lock()
	if el, ok := c.byID[id]; ok {
		c.lru.MoveToFront(el)
		c.mu.Unlock()
		e := el.Value.(*suKeyEntry)
		<-e.ready
		if e.err == nil {
			m.suKeyHits.Inc()
		}
		return e.pk, e.err
	}
	e := &suKeyEntry{id: id, ready: make(chan struct{})}
	el := c.lru.PushFront(e)
	c.byID[id] = el
	m.suKeyEntries.Add(1)
	for c.lru.Len() > c.cap {
		c.remove(c.lru.Back())
		m.suKeyEvicts.Inc()
	}
	c.mu.Unlock()
	m.suKeyMisses.Inc()

	e.pk, e.err = c.fetch(id)
	close(e.ready)
	if e.err != nil {
		c.mu.Lock()
		if c.byID[id] == el {
			c.remove(el)
		}
		c.mu.Unlock()
	}
	return e.pk, e.err
}

// remove drops one entry and its count in the entries gauge. The caller
// holds c.mu.
func (c *SUKeyCache) remove(el *list.Element) {
	c.lru.Remove(el)
	delete(c.byID, el.Value.(*suKeyEntry).id)
	metrics().suKeyEntries.Add(-1)
}

// clear drops every entry; a later Get fetches afresh.
func (c *SUKeyCache) clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.lru.Back(); el != nil; el = c.lru.Back() {
		c.remove(el)
	}
}

// fetch asks the STP for the key and makes it fit to share.
func (c *SUKeyCache) fetch(id string) (*paillier.PublicKey, error) {
	pk, err := c.stp.SUKey(id)
	if err != nil {
		return nil, err
	}
	if err := checkWireKey(fmt.Sprintf("SU %q key from STP", id), pk); err != nil {
		return nil, err
	}
	// A decoded key is this cache's own; a registry's is prepared
	// lean already, and PrepareLean on it changes nothing.
	return pk.PrepareLean(), nil
}
