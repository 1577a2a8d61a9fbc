package pisa

import (
	"container/list"
	"fmt"
	"io"
	"sync"

	"pisa/internal/paillier"
)

// suKeyCacheEntries bounds an SUKeyCache. An armed entry holds one
// fixed-base table (about 1.5 MiB at a 2048-bit key), so a full cache
// is about 190 MiB there; a fleet larger than this pays one fetch and
// one table build per eviction, never a wrong answer.
const suKeyCacheEntries = 128

// SUKeyCache is the SDC-side (and router-side) view of the STP's SU key
// registry: id -> the key object the request path multiplies and
// encrypts under. It exists because STPService.SUKey is a remote call
// in a networked deployment and what comes back is bare — a gob-decoded
// key with only the modulus and the SU's nonce base H set: unprepared
// (its derived fields would be filled lazily, by whichever worker
// goroutines get there first) and unarmed (every encryption under it
// costs one square-and-multiply H^s). The cache fetches each id once,
// checks and prepares the key before any worker sees it, and tables its
// H when its owner encrypts under it. A key that already carries a table — what an in-process STP
// armed by SetFastExp hands out — is reused as it is.
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
// Safe for concurrent use; concurrent misses on one id share a single
// fetch and a single table build.
type SUKeyCache struct {
	stp    STPService
	params Params
	random io.Reader
	arm    bool
	cap    int

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

// newSUKeyCache builds an empty cache over stp. arm says whether the
// owner encrypts under the keys (a router's license tail, or a
// full-window SDC sharing its cache with its router): those are armed
// per params on the way in. A windowed shard only multiplies modulo n^2
// and passes false, sparing itself the table. random must be safe for
// concurrent use.
func newSUKeyCache(stp STPService, params Params, random io.Reader, arm bool) *SUKeyCache {
	return &SUKeyCache{
		stp:    stp,
		params: params,
		random: random,
		arm:    arm,
		cap:    suKeyCacheEntries,
		lru:    list.New(),
		byID:   make(map[string]*list.Element),
	}
}

// Get returns the prepared (and, for an arming owner, armed) key of the
// SU. The first call for an id asks the STP; an STP error is returned
// to everyone waiting on that fetch and not cached.
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
	for c.lru.Len() > c.cap {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.byID, oldest.Value.(*suKeyEntry).id)
		m.suKeyEvicts.Inc()
	}
	c.mu.Unlock()
	m.suKeyMisses.Inc()

	e.pk, e.err = c.fetch(id)
	close(e.ready)
	if e.err != nil {
		c.mu.Lock()
		if c.byID[id] == el {
			c.lru.Remove(el)
			delete(c.byID, id)
		}
		c.mu.Unlock()
	}
	return e.pk, e.err
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
	pk = preparedCopy(pk)
	if c.arm {
		if err := c.params.armFastExp(c.random, pk); err != nil {
			return nil, fmt.Errorf("pisa: arm SU %q key: %w", id, err)
		}
	}
	return pk, nil
}
