package repro

// The root benchmarks are the measurements no other instrument takes:
// the plaintext WATCH decision that prices the privacy of
// `pisabench -figure6`'s "SDC-side request processing", and the single
// versus 2-of-2 threshold STP sign conversion (the paper's §VII). The
// paper's own tables (Table II, Figure 6, the §VI-A trade-off, the DGHV
// and bit-wise baselines, the worker sweep) are cmd/pisabench;
// end-to-end and per-layer cost is ./benchmark; scenario load and the
// PIR backend are cmd/pisaload; single kernels bench in their packages.

import (
	"crypto/rand"
	"testing"

	"pisa/internal/bench"
	"pisa/internal/paillier"
	"pisa/internal/pisa"
	"pisa/internal/watch"
)

// BenchmarkAblation_PlaintextWATCH times the plaintext baseline's
// whole decision pipeline at pisabench's default Figure 6 scale (C=5,
// B=12) — the cost of privacy is the ratio against that run's request
// processing.
func BenchmarkAblation_PlaintextWATCH(b *testing.B) {
	params, err := bench.SmallParams(5, 4, 3, 2048)
	if err != nil {
		b.Fatal(err)
	}
	oracle, err := watch.NewSystem(params.Watch, nil)
	if err != nil {
		b.Fatal(err)
	}
	eirp := map[int]int64{0: params.Watch.Quantize(1000)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := oracle.Evaluate(watch.Request{Block: 0, EIRPUnits: eirp}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtension_STPConvert times the single-STP sign conversion
// (decrypt + re-encrypt per cell) for comparison with the distributed
// variant below.
func BenchmarkExtension_STPConvert(b *testing.B) {
	params, err := bench.SmallParams(5, 4, 3, 2048)
	if err != nil {
		b.Fatal(err)
	}
	stp, err := pisa.NewSTP(rand.Reader, params.PaillierBits)
	if err != nil {
		b.Fatal(err)
	}
	req := convertFixture(b, stp, stp.GroupKey(), params)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stp.ConvertSigns(req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtension_DistSTPConvert times the 2-of-2 threshold
// variant (the paper's §VII extension): two partial exponentiations
// plus a combine replace one decryption per ciphertext.
func BenchmarkExtension_DistSTPConvert(b *testing.B) {
	params, err := bench.SmallParams(5, 4, 3, 2048)
	if err != nil {
		b.Fatal(err)
	}
	dist, err := pisa.NewDistSTP(rand.Reader, params.PaillierBits, 2)
	if err != nil {
		b.Fatal(err)
	}
	req := convertFixture(b, dist, dist.GroupKey(), params)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dist.ConvertSigns(req); err != nil {
			b.Fatal(err)
		}
	}
}

// registrar is the common SU-registration surface of both STP kinds.
type registrar interface {
	RegisterSU(id string, pk *paillier.PublicKey) error
}

// convertFixture registers a throwaway SU key and builds a 60-cell
// sign request of blinded-looking values.
func convertFixture(b *testing.B, reg registrar, group *paillier.PublicKey, params pisa.Params) *pisa.SignRequest {
	b.Helper()
	suKey, err := paillier.GenerateKey(rand.Reader, params.PaillierBits)
	if err != nil {
		b.Fatal(err)
	}
	if err := reg.RegisterSU("bench-su", suKey.Public()); err != nil {
		b.Fatal(err)
	}
	cells := params.Watch.Channels * params.Watch.Grid.Blocks()
	vs := make([]*paillier.Ciphertext, cells)
	for i := range vs {
		sign := int64(1)
		if i%2 == 0 {
			sign = -1
		}
		ct, err := group.EncryptInt(rand.Reader, sign*int64(1_000_000+i))
		if err != nil {
			b.Fatal(err)
		}
		vs[i] = ct
	}
	return &pisa.SignRequest{SUID: "bench-su", V: vs, Slots: 1, SlotBits: 64,
		AnswerBits: params.AnswerBits(params.PaillierBits)}
}
