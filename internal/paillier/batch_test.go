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
	cts := make([]*Ciphertext, len(ms))
	for i, m := range ms {
		ct, err := pk.Encrypt(rand.Reader, m)
		if err != nil {
			t.Fatalf("slot %d: Encrypt: %v", i, err)
		}
		cts[i] = ct
	}
	for _, workers := range []int{1, 4} {
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
