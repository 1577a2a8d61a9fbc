package bench

import (
	"crypto/rand"
	"fmt"
	"net"
	"time"

	"pisa/internal/geo"
	"pisa/internal/node"
	"pisa/internal/paillier"
	"pisa/internal/pisa"
)

// This file measures the two halves of the packing work: the wire/size
// and latency effect of the slot-packed request layout, and the
// round-trip amortisation of batched sign-test RPCs. Both feed rows of
// the committed BENCH_PISA.json (pisabench -json) next to the
// fixed-base engine comparison.

// PackingReport compares the packed and legacy request layouts on one
// deployment shape, end to end (SU prepare -> SDC+STP process).
type PackingReport struct {
	// Channels and Blocks describe the measured matrix scale.
	Channels int `json:"channels"`
	Blocks   int `json:"blocks"`
	// PaillierBits is the modulus size; Slots how many block cells
	// share one ciphertext in packed mode.
	PaillierBits int `json:"paillierBits"`
	Slots        int `json:"slots"`
	// RequestBytesPacked / RequestBytesUnpacked are the measured SU
	// transmission request sizes; Shrink is their ratio.
	RequestBytesPacked   int     `json:"requestBytesPacked"`
	RequestBytesUnpacked int     `json:"requestBytesUnpacked"`
	Shrink               float64 `json:"shrink"`
	// PrepareNs* and ProcessNs* are one fresh SU request preparation
	// and one end-to-end SDC+STP request processing per mode.
	PrepareNsPacked   int64 `json:"prepareNsPacked"`
	PrepareNsUnpacked int64 `json:"prepareNsUnpacked"`
	ProcessNsPacked   int64 `json:"processNsPacked"`
	ProcessNsUnpacked int64 `json:"processNsUnpacked"`
}

// MeasurePacking stands up two otherwise-identical deployments —
// packing on and off — and measures request size, preparation and
// end-to-end processing in each.
func MeasurePacking(channels, cols, rows, bits int) (*PackingReport, error) {
	report := &PackingReport{Channels: channels, Blocks: cols * rows, PaillierBits: bits}
	eirpOf := func(u *Universe) map[int]int64 {
		return map[int]int64{0: u.Params.Watch.Quantize(1000)}
	}
	for _, packed := range []bool{true, false} {
		params, err := SmallParams(channels, cols, rows, bits)
		if err != nil {
			return nil, err
		}
		params.Packing = packed
		u, err := NewUniverse(params)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		req, err := u.SU.PrepareRequest(eirpOf(u), geo.Disclosure{})
		if err != nil {
			return nil, err
		}
		prepare := time.Since(start)
		start = time.Now()
		if _, err := u.SDC.ProcessRequest(req); err != nil {
			return nil, err
		}
		process := time.Since(start)
		if packed {
			report.Slots = params.PackSlots()
			report.RequestBytesPacked = req.SizeBytes()
			report.PrepareNsPacked = prepare.Nanoseconds()
			report.ProcessNsPacked = process.Nanoseconds()
		} else {
			report.RequestBytesUnpacked = req.SizeBytes()
			report.PrepareNsUnpacked = prepare.Nanoseconds()
			report.ProcessNsUnpacked = process.Nanoseconds()
		}
	}
	if report.RequestBytesPacked > 0 {
		report.Shrink = float64(report.RequestBytesUnpacked) / float64(report.RequestBytesPacked)
	}
	return report, nil
}

// ConvertReport compares batched vs sequential sign-test RPCs against
// a loopback STP server: `batch` requests as one KindBatchConvertRequest
// versus the same requests as individual round trips.
type ConvertReport struct {
	PaillierBits int `json:"paillierBits"`
	// Batch is how many sign requests one batched RPC carried; VLen
	// how many ciphertexts each request held.
	Batch int `json:"batch"`
	VLen  int `json:"vLen"`
	// SequentialNsPerReq and BatchedNsPerReq are mean wall time per
	// request under each strategy; Speedup their ratio.
	SequentialNsPerReq int64   `json:"sequentialNsPerReq"`
	BatchedNsPerReq    int64   `json:"batchedNsPerReq"`
	Speedup            float64 `json:"speedup"`
}

// MeasureConvert runs the batched-vs-sequential comparison over a real
// TCP loopback STP server, so the measured difference includes exactly
// what coalescing saves: per-RPC framing, syscalls and round trips.
// iters full rounds are averaged.
func MeasureConvert(bits, vlen, batch, iters int) (*ConvertReport, error) {
	if batch < 1 || vlen < 1 || iters < 1 {
		return nil, fmt.Errorf("bench: batch, vlen and iters must be positive")
	}
	stp, err := pisa.NewSTP(rand.Reader, bits)
	if err != nil {
		return nil, err
	}
	// The fixed-base engine is the production default (pisa.Params
	// FastExp); arming it here keeps the answer encryption at its
	// deployed cost so the comparison isolates the RPC overhead.
	if err := stp.SetFastExp(0, 0); err != nil {
		return nil, err
	}
	srv := node.NewSTPServer(stp, nil, 0)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go srv.Serve(ln)
	defer srv.Close()
	client, err := node.DialSTP(ln.Addr().String(), 0)
	if err != nil {
		return nil, err
	}
	defer client.Close()

	suKey, err := paillier.GenerateKey(rand.Reader, bits)
	if err != nil {
		return nil, err
	}
	if err := client.RegisterSU("bench-su", suKey.Public()); err != nil {
		return nil, err
	}
	group := stp.GroupKey()
	reqs := make([]*pisa.SignRequest, batch)
	for i := range reqs {
		vs := make([]*paillier.Ciphertext, vlen)
		for j := range vs {
			sign := int64(1)
			if (i+j)%2 == 0 {
				sign = -1
			}
			ct, err := group.EncryptInt(rand.Reader, sign*int64(1_000+i*vlen+j))
			if err != nil {
				return nil, err
			}
			vs[j] = ct
		}
		// Room for a few dozen sign slots, inside any key MeasureConvert
		// is run at.
		reqs[i] = &pisa.SignRequest{SUID: "bench-su", V: vs, AnswerBits: bits / 2}
	}
	// One warm-up exchange per path primes the connection pool and the
	// gob type streams, so neither strategy is charged the one-off setup.
	if _, err := client.ConvertSigns(reqs[0]); err != nil {
		return nil, err
	}
	if _, err := client.ConvertSignsBatch(&pisa.BatchSignRequest{Reqs: reqs[:1]}); err != nil {
		return nil, err
	}

	var seq, bat time.Duration
	for i := 0; i < iters; i++ {
		start := time.Now()
		for _, req := range reqs {
			if _, err := client.ConvertSigns(req); err != nil {
				return nil, err
			}
		}
		seq += time.Since(start)
		start = time.Now()
		if _, err := client.ConvertSignsBatch(&pisa.BatchSignRequest{Reqs: reqs}); err != nil {
			return nil, err
		}
		bat += time.Since(start)
	}
	n := int64(iters * batch)
	report := &ConvertReport{
		PaillierBits:       bits,
		Batch:              batch,
		VLen:               vlen,
		SequentialNsPerReq: seq.Nanoseconds() / n,
		BatchedNsPerReq:    bat.Nanoseconds() / n,
	}
	if report.BatchedNsPerReq > 0 {
		report.Speedup = float64(report.SequentialNsPerReq) / float64(report.BatchedNsPerReq)
	}
	return report, nil
}
