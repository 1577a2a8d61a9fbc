package pisa

import (
	"bytes"
	"crypto/rand"
	"encoding/gob"
	"math/big"
	"testing"

	"pisa/internal/paillier"
)

// fixedKeySTP is an STPService that hands out one SU key, whatever it
// is: the STP a cache cannot trust.
type fixedKeySTP struct {
	STPService
	pk *paillier.PublicKey
}

func (f fixedKeySTP) SUKey(string) (*paillier.PublicKey, error) { return f.pk, nil }

// TestUntrustedSUKeyRejected: an SU's nonce base H is input from
// outside at every door a key comes in by — live registration, the
// registry snapshot and WAL read back at start-up, a key fetched from
// the STP — and each door refuses an H outside (1, n^2), one sharing a
// factor with n, and an oversized modulus. A second registration of an
// id must match in H as well as in N.
func TestUntrustedSUKeyRejected(t *testing.T) {
	sk, err := paillier.GenerateKey(rand.Reader, 256)
	if err != nil {
		t.Fatal(err)
	}
	good := sk.Public()
	n2 := good.NSquared()
	bad := map[string]*paillier.PublicKey{
		"nil modulus":      {H: good.H},
		"H = 0":            {N: good.N, H: new(big.Int)},
		"H = 1":            {N: good.N, H: big.NewInt(1)},
		"H = n^2":          {N: good.N, H: n2},
		"H far beyond n^2": {N: good.N, H: new(big.Int).Lsh(n2, 1<<20)},
		"H = n":            {N: good.N, H: good.N},
		"oversized modulus": {
			N: new(big.Int).Lsh(big.NewInt(1), 8*maxWireKeyBytes+1),
		},
	}
	for name, pk := range bad {
		stp := NewSTPWithKey(rand.Reader, sk)
		if err := stp.RegisterSU("su-1", pk); err == nil {
			t.Errorf("%s: registration accepted", name)
		}
		cache := newSUKeyCache(fixedKeySTP{pk: pk})
		if _, err := cache.Get("su-1"); err == nil {
			t.Errorf("%s: key fetched from the STP accepted", name)
		}
		if pk.N == nil {
			continue // EncodeSURegistration refuses it before the decoder could
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&suRegistrationV1{ID: "su-1", Modulus: pk.N, Base: pk.H}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := DecodeSURegistration(buf.Bytes()); err == nil {
			t.Errorf("%s: WAL registration record accepted", name)
		}
		h := pk.H
		if h == nil {
			h = new(big.Int)
		}
		buf.Reset()
		reg := stpRegistryV1{Version: stpRegistryVersion, IDs: []string{"su-1"}, Moduli: []*big.Int{pk.N}, Bases: []*big.Int{h}}
		if err := gob.NewEncoder(&buf).Encode(&reg); err != nil {
			t.Fatal(err)
		}
		if name != "H = 0" { // zero is the snapshot's spelling of "no H"
			if err := stp.RestoreRegistry(buf.Bytes(), nil); err == nil {
				t.Errorf("%s: registry snapshot accepted", name)
			}
		}
	}

	stp := NewSTPWithKey(rand.Reader, sk)
	if err := stp.RegisterSU("su-1", good); err != nil {
		t.Fatal(err)
	}
	if err := stp.RegisterSU("su-1", &paillier.PublicKey{N: good.N, H: good.H}); err != nil {
		t.Fatalf("same key refused on re-registration: %v", err)
	}
	otherH := new(big.Int).Exp(good.H, big.NewInt(3), n2)
	for name, pk := range map[string]*paillier.PublicKey{
		"another H": {N: good.N, H: otherH},
		"no H":      {N: good.N},
	} {
		if err := stp.RegisterSU("su-1", pk); err == nil {
			t.Errorf("re-registration of the same modulus with %s accepted", name)
		}
	}
}
