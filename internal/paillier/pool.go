package paillier

import (
	"fmt"
	"io"
	"log/slog"
	"sync"

	"pisa/internal/parallel"
)

// NoncePool moves the exponentiation behind NewNonce off the request
// path. It extends the Nonce type with a concurrency-safe pool that can
// be filled synchronously (offline precomputation, §VI-A) or refilled
// by a background goroutine when a low-water mark is crossed, so
// sustained traffic keeps paying only one modular multiplication per
// refresh instead of a full exponentiation.
//
// Get never fails for lack of stock: a dry pool falls back to
// generating a nonce online, exactly like the pre-pool code path.
type NoncePool struct {
	pk     *PublicKey
	random io.Reader

	mu        sync.Mutex
	nonces    []*Nonce
	target    int // auto-refill high-water mark; 0 disables refills
	low       int // refill trigger: len < low starts a background refill
	refilling bool
	closed    bool // Close called: no new background refills

	// refillErr is the last background refill failure, owed to the next
	// Get; that Get or a re-arming SetAutoRefill clears it.
	refillErr error

	wg sync.WaitGroup // outstanding background refills
}

// NewNoncePool builds an empty pool. Fills and background refills fan
// out over parallel.Auto() workers; random follows the usual
// nil-means-crypto/rand convention.
func NewNoncePool(pk *PublicKey, random io.Reader) *NoncePool {
	// Background refills and online Get fallbacks can read the source
	// concurrently, so it is always wrapped for sharing.
	return &NoncePool{
		pk:     pk,
		random: SharedReader(random),
	}
}

// SetAutoRefill arms (target > 0) or disarms (target == 0) background
// refilling: whenever a Get leaves fewer than target/4 (at least 1)
// nonces pooled, a background goroutine tops the pool back up to
// target.
//
// A refill failure explicitly disarms auto-refill (Get keeps working
// through pooled stock and online generation): the failure is logged,
// counted in the obs registry and returned by exactly one Get, unless
// this method re-arms the pool first.
func (p *NoncePool) SetAutoRefill(target int) error {
	if target < 0 {
		return fmt.Errorf("paillier: negative refill target %d", target)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return fmt.Errorf("paillier: pool closed")
	}
	p.target = target
	p.low = target / 4
	if p.low < 1 {
		p.low = 1
	}
	p.refillErr = nil
	return nil
}

// Fill synchronously adds count nonces to the pool, generating them
// over parallel.Auto() workers.
func (p *NoncePool) Fill(count int) error {
	if count < 0 {
		return fmt.Errorf("paillier: negative nonce count %d", count)
	}
	fresh, err := p.pk.NewNonceBatch(p.random, count, parallel.Auto())
	if err != nil {
		return err
	}
	p.mu.Lock()
	p.nonces = append(p.nonces, fresh...)
	pmetrics().depth.Set(int64(len(p.nonces)))
	p.mu.Unlock()
	return nil
}

// Len reports the pooled nonce count.
func (p *NoncePool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.nonces)
}

// Get pops one nonce, generating online when the pool is dry. When
// auto-refill is armed and stock dips below the low-water mark, a
// background refill starts (at most one at a time).
func (p *NoncePool) Get() (*Nonce, error) {
	m := pmetrics()
	p.mu.Lock()
	if err := p.refillErr; err != nil {
		// Surface the background failure to exactly one caller.
		p.refillErr = nil
		p.mu.Unlock()
		return nil, fmt.Errorf("paillier: background nonce refill: %w", err)
	}
	var n *Nonce
	if last := len(p.nonces) - 1; last >= 0 {
		n = p.nonces[last]
		p.nonces[last] = nil
		p.nonces = p.nonces[:last]
	}
	m.depth.Set(int64(len(p.nonces)))
	p.maybeRefillLocked()
	p.mu.Unlock()
	if n != nil {
		return n, nil
	}
	m.fallbacks.Inc()
	return p.pk.NewNonce(p.random)
}

// maybeRefillLocked starts one background refill when armed and below
// the low-water mark. Caller holds p.mu.
func (p *NoncePool) maybeRefillLocked() {
	if p.closed || p.target == 0 || p.refilling || len(p.nonces) >= p.low {
		return
	}
	need := p.target - len(p.nonces)
	p.refilling = true
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		m := pmetrics()
		fresh, err := p.pk.NewNonceBatch(p.random, need, parallel.Auto())
		p.mu.Lock()
		p.refilling = false
		if err != nil {
			// Explicit disarm until SetAutoRefill re-arms.
			p.refillErr = err
			p.target = 0
			m.refillErrs.Inc()
			slog.Warn("paillier: background nonce refill failed; auto-refill disarmed",
				"err", err, "pooled", len(p.nonces))
		} else {
			p.nonces = append(p.nonces, fresh...)
			m.refills.Inc()
			m.depth.Set(int64(len(p.nonces)))
		}
		p.mu.Unlock()
	}()
}

// Wait blocks until any in-flight background refill finishes — used by
// tests and by shutdown paths that want deterministic accounting.
func (p *NoncePool) Wait() {
	p.wg.Wait()
}

// Close disarms auto-refill and waits for any in-flight background
// refill goroutine to exit, so a pool whose owner is done cannot leak
// goroutines. Get keeps working after Close (pooled stock first, then
// online generation); only the background machinery stops. Safe to
// call more than once.
func (p *NoncePool) Close() {
	p.mu.Lock()
	p.closed = true
	p.target = 0
	p.mu.Unlock()
	p.wg.Wait()
}
