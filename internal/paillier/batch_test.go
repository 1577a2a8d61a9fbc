package paillier

import (
	"crypto/rand"
	"math/big"
	"sync"
	"testing"
)

var batchKey = sync.OnceValue(func() *PrivateKey {
	sk, err := GenerateKey(rand.Reader, 256)
	if err != nil {
		panic(err)
	}
	return sk
})

func TestEncryptDecryptBatchRoundTrip(t *testing.T) {
	sk := batchKey()
	pk := &sk.PublicKey
	ms := make([]*big.Int, 40)
	for i := range ms {
		ms[i] = big.NewInt(int64(i*13 - 200))
	}
	for _, workers := range []int{1, 4} {
		cts, err := pk.EncryptBatch(rand.Reader, ms, workers)
		if err != nil {
			t.Fatalf("workers=%d: EncryptBatch: %v", workers, err)
		}
		back, err := sk.DecryptBatch(cts, workers)
		if err != nil {
			t.Fatalf("workers=%d: DecryptBatch: %v", workers, err)
		}
		for i := range ms {
			if ms[i].Cmp(back[i]) != 0 {
				t.Fatalf("workers=%d: slot %d = %s, want %s", workers, i, back[i], ms[i])
			}
		}
	}
}

func TestEncryptIntBatch(t *testing.T) {
	sk := batchKey()
	cts, err := sk.PublicKey.EncryptIntBatch(rand.Reader, []int64{-5, 0, 7}, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{-5, 0, 7}
	for i, ct := range cts {
		v, err := sk.DecryptInt(ct)
		if err != nil || v != want[i] {
			t.Fatalf("slot %d = %d, %v; want %d", i, v, err, want[i])
		}
	}
}

func TestEncryptBatchRejectsOversizedMessage(t *testing.T) {
	sk := batchKey()
	pk := &sk.PublicKey
	ms := []*big.Int{big.NewInt(1), new(big.Int).Set(pk.N)}
	if _, err := pk.EncryptBatch(rand.Reader, ms, 4); err == nil {
		t.Fatal("oversized message accepted")
	}
}

func TestNonceBatchRefreshesCorrectly(t *testing.T) {
	sk := batchKey()
	pk := &sk.PublicKey
	ct, err := pk.EncryptInt(rand.Reader, 42)
	if err != nil {
		t.Fatal(err)
	}
	nonces, err := pk.NewNonceBatch(rand.Reader, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range nonces {
		rr, err := pk.RerandomizeWith(ct, n)
		if err != nil {
			t.Fatalf("nonce %d: %v", i, err)
		}
		if rr.Equal(ct) {
			t.Fatalf("nonce %d did not change the ciphertext", i)
		}
		if v, err := sk.DecryptInt(rr); err != nil || v != 42 {
			t.Fatalf("nonce %d: decrypt = %d, %v", i, v, err)
		}
	}
}

func TestNoncePoolFillGetAccounting(t *testing.T) {
	sk := batchKey()
	pk := &sk.PublicKey
	pool := NewNoncePool(pk, rand.Reader)
	if err := pool.Fill(-1); err == nil {
		t.Error("negative fill accepted")
	}
	if err := pool.Fill(5); err != nil {
		t.Fatal(err)
	}
	if got := pool.Len(); got != 5 {
		t.Fatalf("Len = %d, want 5", got)
	}
	ct, err := pk.EncryptInt(rand.Reader, 9)
	if err != nil {
		t.Fatal(err)
	}
	// Drain past empty: the dry pool must fall back to online
	// generation and keep working.
	for i := 0; i < 7; i++ {
		n, err := pool.Get()
		if err != nil {
			t.Fatalf("Get %d: %v", i, err)
		}
		rr, err := pk.RerandomizeWith(ct, n)
		if err != nil {
			t.Fatalf("Get %d: refresh: %v", i, err)
		}
		if v, err := sk.DecryptInt(rr); err != nil || v != 9 {
			t.Fatalf("Get %d: decrypt = %d, %v", i, v, err)
		}
	}
	if got := pool.Len(); got != 0 {
		t.Fatalf("Len after drain = %d, want 0", got)
	}
}

func TestNoncePoolAutoRefill(t *testing.T) {
	pk := &batchKey().PublicKey
	pool := NewNoncePool(pk, rand.Reader)
	if err := pool.SetAutoRefill(-2); err == nil {
		t.Error("negative target accepted")
	}
	if err := pool.SetAutoRefill(8); err != nil {
		t.Fatal(err)
	}
	// The first Get finds the pool empty (below low-water mark) and
	// must trigger a background top-up to the target.
	if _, err := pool.Get(); err != nil {
		t.Fatal(err)
	}
	pool.Wait()
	if got := pool.Len(); got != 8 {
		t.Fatalf("Len after auto-refill = %d, want 8", got)
	}
	// Draining a little stays above the low-water mark: no refill.
	for i := 0; i < 2; i++ {
		if _, err := pool.Get(); err != nil {
			t.Fatal(err)
		}
	}
	pool.Wait()
	if got := pool.Len(); got != 6 {
		t.Fatalf("Len = %d, want 6 (no refill above low-water mark)", got)
	}
	// Disarming stops refills.
	if err := pool.SetAutoRefill(0); err != nil {
		t.Fatal(err)
	}
	for pool.Len() > 0 {
		if _, err := pool.Get(); err != nil {
			t.Fatal(err)
		}
	}
	pool.Wait()
	if got := pool.Len(); got != 0 {
		t.Fatalf("Len = %d, want 0 after disarm", got)
	}
}
