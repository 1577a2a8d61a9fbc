package node

import (
	"crypto/rand"
	"testing"

	"pisa/internal/paillier"
	"pisa/internal/pisa"
)

// TestConvertSignsBatchOverWire drives the coalesced sign-test RPC end
// to end: one KindBatchConvertRequest must return, element for
// element, exactly what the per-request path returns in plaintext.
func TestConvertSignsBatchOverWire(t *testing.T) {
	n := startNet(t)
	suKey, err := paillier.GenerateKey(rand.Reader, n.params.PaillierBits)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.stpClient.RegisterSU("su-batch", suKey.Public()); err != nil {
		t.Fatalf("RegisterSU: %v", err)
	}
	group := n.stpClient.GroupKey()

	values := []int64{42, -17, 3, -1000, 1}
	reqs := make([]*pisa.SignRequest, len(values))
	for i, v := range values {
		ct, err := group.EncryptInt(rand.Reader, v)
		if err != nil {
			t.Fatal(err)
		}
		reqs[i] = &pisa.SignRequest{SUID: "su-batch", V: []*paillier.Ciphertext{ct}, AnswerBits: 64}
	}

	batch, err := n.stpClient.ConvertSignsBatch(&pisa.BatchSignRequest{Reqs: reqs})
	if err != nil {
		t.Fatalf("ConvertSignsBatch: %v", err)
	}
	if len(batch.Resps) != len(reqs) {
		t.Fatalf("%d batch responses for %d requests", len(batch.Resps), len(reqs))
	}
	for i, req := range reqs {
		single, err := n.stpClient.ConvertSigns(req)
		if err != nil {
			t.Fatalf("ConvertSigns(%d): %v", i, err)
		}
		want, err := suKey.DecryptInt(single.X[0])
		if err != nil {
			t.Fatal(err)
		}
		got, err := suKey.DecryptInt(batch.Resps[i].X[0])
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("element %d: batched sign %d, per-request sign %d", i, got, want)
		}
		wantSign := int64(1)
		if values[i] <= 0 {
			wantSign = -1
		}
		if got != wantSign {
			t.Errorf("element %d: sign %d for value %d, want %d", i, got, values[i], wantSign)
		}
	}
}

// TestConvertSignsBatchRejectsEmpty checks the server-side guard.
func TestConvertSignsBatchRejectsEmpty(t *testing.T) {
	n := startNet(t)
	if _, err := n.stpClient.ConvertSignsBatch(&pisa.BatchSignRequest{}); err == nil {
		t.Fatal("empty batch accepted over the wire")
	}
}
