package pisa

import (
	"bytes"
	"crypto/rand"
	mrand "math/rand"
	"regexp"
	"runtime"
	"strconv"
	"testing"

	"pisa/internal/geo"
	"pisa/internal/obs"
	"pisa/internal/paillier"
)

// TestLanesParity: the lane paths change how the SDC, the SU and a PU
// compute, never what. With one seeded source per call, the kernel
// switched on (paillier.SetLaneKernel) and off gives byte-identical
// V~ from SDC.blind — runs of 1, 7, 8 and 9 cells, all on the general
// exponentiation or some on power tables built in the mode under test —
// the ciphertexts of
// SU.PrepareRequest and of a PU.update, and the beta encryptions under
// the group key, each drawn on a key object of its own so that its nonce
// table is built in the mode under test; both modes draw as many nonces,
// and with the kernel on (where the CPU has it) alpha and the nonces
// went through its lanes. GOMAXPROCS is 1 for the test so that blind's
// chunks draw in one order.
func TestLanesParity(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	d := newDeployment(t)
	defer d.sdc.Close()
	su := d.newSU(t, "su-lanes", 7)
	pu := d.newPU(t, "pu-lanes", 9)
	group := d.sdc.group
	is := make([]*paillier.Ciphertext, 9)
	for i := range is {
		var err error
		if is[i], err = group.EncryptInt(rand.Reader, int64(1000*i-4000)); err != nil {
			t.Fatal(err)
		}
	}
	request := map[int]int64{0: 100, 2: 80}

	// run returns every output of one mode, serialised in order.
	run := func(lanes bool) [][]byte {
		defer paillier.SetLaneKernel(paillier.SetLaneKernel(lanes))
		fresh := func(seed int64) (*paillier.PublicKey, *mrand.Rand) {
			return (&paillier.PublicKey{N: group.N, H: group.H}).Prepare(), mrand.New(mrand.NewSource(seed))
		}
		var out [][]byte
		add := func(cts ...*paillier.Ciphertext) {
			for _, ct := range cts {
				out = append(out, ct.C.Bytes())
			}
		}
		// Tables of cells 0, 4 and 8, built in this mode: lane tables
		// with the kernel on, fbexp tables off.
		tabs := make([]*paillier.PowerTable, len(is))
		built, err := group.PowerTables([]*paillier.Ciphertext{is[0], is[4], is[8]}, d.params.AlphaBits)
		if err != nil {
			t.Fatal(err)
		}
		tabs[0], tabs[4], tabs[8] = built[0], built[1], built[2]

		sdcGroup, sdcRandom := d.sdc.group, d.sdc.random
		defer func() { d.sdc.group, d.sdc.random = sdcGroup, sdcRandom }()
		for _, n := range []int{1, 7, 8, 9} {
			for _, tabled := range []bool{false, true} {
				d.sdc.group, d.sdc.random = fresh(int64(n))
				r := &shardRequest{cells: make([]requestCell, n), is: is[:n]}
				if tabled {
					r.tabs = tabs[:n]
				}
				if err := d.sdc.blind(r); err != nil {
					t.Fatalf("blind of %d cells: %v", n, err)
				}
				add(r.vs...)
			}
		}

		suGroup, suRandom := su.group, su.random
		defer func() { su.group, su.random = suGroup, suRandom }()
		su.group, su.random = fresh(21)
		req, err := su.PrepareRequest(request, geo.Disclosure{})
		if err != nil {
			t.Fatal(err)
		}
		if err := req.FP.ForEachGroup(func(_, _ int, ct *paillier.Ciphertext) error {
			add(ct)
			return nil
		}); err != nil {
			t.Fatal(err)
		}

		puGroup, puRandom := pu.group, pu.random
		defer func() { pu.group, pu.random = puGroup, puRandom }()
		pu.group, pu.random = fresh(22)
		u, err := pu.Tune(1, 5000)
		if err != nil {
			t.Fatal(err)
		}
		add(u.Cts...)
		return out
	}

	lanes := paillier.SetLaneKernel(true)
	paillier.SetLaneKernel(lanes)
	s0, a0, n0, b0 := paillier.Nonces(), lanesUsed(t, "scalarmul"), lanesUsed(t, "nonce"), lanesUsed(t, "table")
	on := run(true)
	perMode := paillier.Nonces() - s0
	a1, n1, b1 := lanesUsed(t, "scalarmul"), lanesUsed(t, "nonce"), lanesUsed(t, "table")
	if lanes && (a1 == a0 || n1 == n0 || b1 == b0) {
		t.Errorf("lanes on: %d alpha, %d nonce and %d tabled alpha lanes used, want all > 0", a1-a0, n1-n0, b1-b0)
	}
	off := run(false)
	if got := paillier.Nonces() - s0 - perMode; got != perMode {
		t.Errorf("lanes on drew %d nonces, off %d", perMode, got)
	}
	if a2, n2, b2 := lanesUsed(t, "scalarmul"), lanesUsed(t, "nonce"), lanesUsed(t, "table"); a2 != a1 || n2 != n1 || b2 != b1 {
		t.Errorf("lanes off: %d alpha, %d nonce and %d tabled alpha lanes used, want 0", a2-a1, n2-n1, b2-b1)
	}
	if len(on) != len(off) {
		t.Fatalf("lanes on gave %d ciphertexts, off %d", len(on), len(off))
	}
	for i := range on {
		if !bytes.Equal(on[i], off[i]) {
			t.Fatalf("ciphertext %d of %d differs between lanes on and off", i, len(on))
		}
	}
}

// lanesUsed reads pisa_paillier_lanes_total{lane="used", op=op} off the
// process's registry.
func lanesUsed(t *testing.T, op string) uint64 { return laneCount(t, op, "used") }

// laneCount reads pisa_paillier_lanes_total{lane=lane, op=op} off the
// process's registry.
func laneCount(t *testing.T, op, lane string) uint64 {
	t.Helper()
	var b bytes.Buffer
	if err := obs.Default().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?m)^pisa_paillier_lanes_total\{lane="` + lane + `",op="` + op + `"\} (\d+)$`).FindSubmatch(b.Bytes())
	if m == nil {
		t.Fatalf("no pisa_paillier_lanes_total series for op %q, lane %q", op, lane)
	}
	v, err := strconv.ParseUint(string(m[1]), 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}
