package pisa

import (
	"crypto/rand"
	"fmt"
	"math/big"
	"math/bits"
	mrand "math/rand"
	"strings"
	"testing"

	"pisa/internal/geo"
	"pisa/internal/paillier"
	"pisa/internal/watch"
)

// TestPackedAnswerZeroIffAllPass is the no-false-grant property of the
// packed answer, driven through the real conversion kernel and the real
// unblinding: for random slot outcomes and random epsilons, a grant
// indicator decrypts to 0 exactly when every slot test of every element
// it covers passed. k = 1 is the paper's one-cell layout, k = 12 the one
// at 2048-bit keys; the answer is sized to three slots so that seven
// elements span three ciphertexts with a short last one. Besides random
// patterns it pins the cases an implementation gets wrong one at a
// time: a single failed slot, and the group whose every slot fails
// under eps = -1 — its converted sign is +k, exactly what an all-pass
// group under eps = +1 sends, so anything keyed on |x| would grant.
func TestPackedAnswerZeroIffAllPass(t *testing.T) {
	group, err := paillier.GenerateKey(rand.Reader, 512)
	if err != nil {
		t.Fatal(err)
	}
	suKey, err := paillier.GenerateKey(rand.Reader, 256)
	if err != nil {
		t.Fatal(err)
	}
	stp := NewSTPWithKey(rand.Reader, group)
	if err := stp.RegisterSU("su-p", suKey.Public()); err != nil {
		t.Fatal(err)
	}
	rng := mrand.New(mrand.NewSource(18))
	const elements, perAnswer = 7, 3
	for _, k := range []int{1, 12} {
		reqCodec, err := paillier.NewSlotCodec(k, 16, 14)
		if err != nil {
			t.Fatal(err)
		}
		answer, err := answerCodec(k, perAnswer*(bits.Len(uint(k))+3))
		if err != nil {
			t.Fatal(err)
		}
		if answer.Slots() != perAnswer {
			t.Fatalf("k=%d: answer holds %d slots, want %d", k, answer.Slots(), perAnswer)
		}
		// fails[i][s] says slot s of element i fails its test.
		run := func(name string, eps []int64, fails [][]bool) {
			t.Helper()
			cells := make([]requestCell, elements)
			vs := make([]*paillier.Ciphertext, elements)
			for i := range cells {
				cells[i].bf.eps = eps[i]
				// What the STP decrypts: eps*(alpha*I - beta) per slot,
				// positive before the flip iff the test passes.
				slots := make([]*big.Int, k)
				for s := range slots {
					v := int64(1 + rng.Intn(1000))
					if fails[i][s] {
						v = -v // alpha*I - beta is never 0: 0 < beta < alpha
					}
					slots[s] = big.NewInt(eps[i] * v)
				}
				plain, err := reqCodec.Pack(slots)
				if err != nil {
					t.Fatal(err)
				}
				if vs[i], err = group.Encrypt(rand.Reader, plain); err != nil {
					t.Fatal(err)
				}
			}
			req := &SignRequest{SUID: "su-p", V: vs, Slots: k, SlotBits: reqCodec.SlotBits(),
				AnswerBits: perAnswer * answer.SlotBits()}
			resp, err := stp.ConvertSigns(req)
			if err != nil {
				t.Fatalf("k=%d %s: %v", k, name, err)
			}
			ds, err := unblindAnswer(suKey.Public(), answer, k, resp.X, cells)
			if err != nil {
				t.Fatalf("k=%d %s: %v", k, name, err)
			}
			if want := (elements + perAnswer - 1) / perAnswer; len(ds) != want {
				t.Fatalf("k=%d %s: %d indicators, want %d", k, name, len(ds), want)
			}
			for c, d := range ds {
				allPass := true
				for i := c * perAnswer; i < min((c+1)*perAnswer, elements); i++ {
					for _, f := range fails[i] {
						allPass = allPass && !f
					}
				}
				plain, err := suKey.Decrypt(d)
				if err != nil {
					t.Fatal(err)
				}
				if (plain.Sign() == 0) != allPass {
					t.Fatalf("k=%d %s: indicator %d decrypts to %s, all tests passed = %v (eps %v, fails %v)",
						k, name, c, plain, allPass, eps, fails)
				}
			}
		}
		pattern := func(fill func(i, s int) bool) [][]bool {
			fails := make([][]bool, elements)
			for i := range fails {
				fails[i] = make([]bool, k)
				for s := range fails[i] {
					fails[i][s] = fill(i, s)
				}
			}
			return fails
		}
		constEps := func(e int64) []int64 {
			eps := make([]int64, elements)
			for i := range eps {
				eps[i] = e
			}
			return eps
		}
		none := func(int, int) bool { return false }
		for _, e := range []int64{1, -1} {
			run(fmt.Sprintf("all pass eps=%d", e), constEps(e), pattern(none))
			run(fmt.Sprintf("all fail eps=%d", e), constEps(e), pattern(func(int, int) bool { return true }))
			run(fmt.Sprintf("one group all fail eps=%d", e), constEps(e), pattern(func(i, _ int) bool { return i == 4 }))
			run(fmt.Sprintf("one slot fails eps=%d", e), constEps(e), pattern(func(i, s int) bool { return i == 6 && s == k-1 }))
		}
		for trial := 0; trial < 40; trial++ {
			eps := make([]int64, elements)
			for i := range eps {
				eps[i] = int64(1 - 2*rng.Intn(2))
			}
			density := rng.Intn(4) // 0: nothing fails
			run(fmt.Sprintf("random %d", trial), eps, pattern(func(int, int) bool {
				return density > 0 && rng.Intn(8) < density
			}))
		}
	}
}

// TestAnswerCodecBounds pins the layout the two sides derive: the slot
// width, the count at the shipped parameter sets, and the refusals.
func TestAnswerCodecBounds(t *testing.T) {
	for _, tc := range []struct {
		name          string
		k, answerBits int
		slots, width  int
	}{
		{"k=1", 1, 384, 96, 4},
		{"k=4 at TestParams", 4, 384, 64, 6},
		{"k=12 at DefaultParams", 12, 1664, 237, 7},
		{"exactly one slot", 12, 7, 1, 7},
	} {
		codec, err := answerCodec(tc.k, tc.answerBits)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if codec.Slots() != tc.slots || codec.SlotBits() != tc.width {
			t.Errorf("%s: %d slots of %d bits, want %d of %d", tc.name, codec.Slots(), codec.SlotBits(), tc.slots, tc.width)
		}
		// The corrected digit x - eps*k reaches 2k in magnitude and must
		// stay a digit: |d| < 2^(width-1).
		if 2*tc.k >= 1<<(tc.width-1) {
			t.Errorf("%s: digit bound 2k = %d does not fit %d-bit slots", tc.name, 2*tc.k, tc.width)
		}
	}
	for _, bad := range [][2]int{{12, 6}, {1, 0}, {0, 64}, {1, -5}} {
		if _, err := answerCodec(bad[0], bad[1]); err == nil {
			t.Errorf("answerCodec(%d, %d) accepted", bad[0], bad[1])
		}
	}
	wp := testWatchParams(t)
	if got := DefaultParams(wp).AnswerBits(2048); got != 1664 {
		t.Errorf("DefaultParams.AnswerBits(2048) = %d, want 1664", got)
	}
	if got := TestParams(wp).AnswerBits(768); got != 384 {
		t.Errorf("TestParams.AnswerBits(768) = %d, want 384", got)
	}
	// An SU that registers a key far smaller than the deployment's gets
	// less room, never a mask that could wrap its modulus.
	if got := TestParams(wp).AnswerBits(256); got != 256-3-64 {
		t.Errorf("TestParams.AnswerBits(256) = %d, want %d", got, 256-3-64)
	}
}

// tamperSTP passes sign conversions through and records, or alters, how
// many ciphertexts each answer carries.
type tamperSTP struct {
	STPService
	answers []int
	alter   func([]*paillier.Ciphertext) []*paillier.Ciphertext
}

func (s *tamperSTP) ConvertSigns(req *SignRequest) (*SignResponse, error) {
	resp, err := s.STPService.ConvertSigns(req)
	if err != nil {
		return nil, err
	}
	s.answers = append(s.answers, len(resp.X))
	if s.alter != nil {
		resp = &SignResponse{X: s.alter(resp.X)}
	}
	return resp, nil
}

// TestAnswerSpansSeveralCiphertexts runs the whole pipeline at 768-bit
// TestParams at one cell per ciphertext over a grid large enough that one
// request's 210 signs need three answer ciphertexts (96 slots each),
// and holds every decision against the plaintext oracle — in particular
// the denials whose single failing cell sits in the first and in the
// last of the three, which a license masked with only some of the
// indicators would grant. The SDC must also refuse an answer of any
// other length (fail closed) instead of masking with what it got.
func TestAnswerSpansSeveralCiphertexts(t *testing.T) {
	grid, err := geo.NewGrid(14, 5, 10)
	if err != nil {
		t.Fatal(err)
	}
	wp := testWatchParams(t)
	wp.Grid = grid
	params := TestParams(wp)
	oneSlot(t, &params)
	stp, err := NewSTP(rand.Reader, params.PaillierBits)
	if err != nil {
		t.Fatal(err)
	}
	tap := &tamperSTP{STPService: stp}
	sdc, err := NewSDC("sdc-wide", params, nil, tap)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sdc.Close)
	oracle, err := watch.NewSystem(wp, nil)
	if err != nil {
		t.Fatal(err)
	}
	d := &deployment{params: params, stp: stp, sdc: sdc, oracle: oracle}
	weak := wp.Quantize(wp.SMinPUmW)

	// Cells enumerate channel-major: (channel 0, block 5) is element 5,
	// in the first answer ciphertext; (channel 2, block 60) is element
	// 200, in the third.
	first, last := d.newPU(t, "tv-first", 5), d.newPU(t, "tv-last", 60)
	suFirst, suLast := d.newSU(t, "su-first", 6), d.newSU(t, "su-last", 61)
	ask := func(su *SU, eirp map[int]int64) bool {
		t.Helper()
		req, err := su.PrepareRequest(eirp, geo.Disclosure{})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := req.Ciphertexts(), wp.Channels*grid.Blocks(); got != want {
			t.Fatalf("request ships %d ciphertexts, want one per cell = %d", got, want)
		}
		tap.answers = nil
		got := d.decide(t, su, req).Granted
		if len(tap.answers) != 1 || tap.answers[0] != 3 {
			t.Fatalf("answers of %v ciphertexts, want one answer of 3", tap.answers)
		}
		if want := d.oracleDecision(t, su.block, eirp); got != want {
			t.Fatalf("%s: PISA=%v, WATCH oracle=%v (eirp=%v)", su.ID(), got, want, eirp)
		}
		return got
	}
	if !ask(suFirst, map[int]int64{0: maxEIRP(d)}) || !ask(suLast, map[int]int64{2: maxEIRP(d)}) {
		t.Fatal("denied with every receiver off")
	}
	d.tune(t, first, 0, weak)
	if ask(suFirst, map[int]int64{0: maxEIRP(d)}) {
		t.Fatal("granted beside a receiver whose cell is in the first answer ciphertext")
	}
	if !ask(suLast, map[int]int64{2: maxEIRP(d)}) {
		t.Fatal("a receiver on another channel far away denied the request")
	}
	d.off(t, first)
	d.tune(t, last, 2, weak)
	if ask(suLast, map[int]int64{2: maxEIRP(d)}) {
		t.Fatal("granted beside a receiver whose cell is in the last answer ciphertext")
	}
	if !ask(suFirst, map[int]int64{0: maxEIRP(d)}) {
		t.Fatal("denied after its receiver went off")
	}

	// Fail closed on a short or long answer.
	req, err := suLast.PrepareRequest(map[int]int64{2: maxEIRP(d)}, geo.Disclosure{})
	if err != nil {
		t.Fatal(err)
	}
	for name, alter := range map[string]func([]*paillier.Ciphertext) []*paillier.Ciphertext{
		"short": func(x []*paillier.Ciphertext) []*paillier.Ciphertext { return x[:len(x)-1] },
		"long":  func(x []*paillier.Ciphertext) []*paillier.Ciphertext { return append(x[:len(x):len(x)], x[0]) },
		"empty": func([]*paillier.Ciphertext) []*paillier.Ciphertext { return nil },
	} {
		tap.alter = alter
		if _, err := sdc.ProcessRequest(req); err == nil || !strings.Contains(err.Error(), "packed answers") {
			t.Errorf("%s answer: ProcessRequest error = %v, want a refusal naming the count", name, err)
		}
	}
}

// TestMaskedLicenseNeedsAnIndicator: a license masked with nothing
// would be a grant, so the licenser refuses to issue one.
func TestMaskedLicenseNeedsAnIndicator(t *testing.T) {
	d := newDeployment(t)
	su := d.newSU(t, "su-1", 7)
	if _, err := d.sdc.router.lic.Issue(su.ID(), [32]byte{}, su.PublicKey(), nil); err == nil {
		t.Fatal("Licenser issued a license without any grant indicator")
	}
}
