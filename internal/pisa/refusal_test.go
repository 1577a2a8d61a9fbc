package pisa_test

import (
	"context"
	"crypto/rand"
	"errors"
	"log/slog"
	"math/big"
	"net"
	"strings"
	"testing"
	"time"

	"pisa/internal/deploy"
	"pisa/internal/geo"
	"pisa/internal/node"
	"pisa/internal/paillier"
	"pisa/internal/pisa"
	"pisa/internal/watch"
	"pisa/internal/wire"
)

// The protocol messages are plain structs that gob encodes directly, and
// what a legal one is, only the role that reads it decides. Each test
// sends hostile messages to a real node server, gob-encoded in
// envelopes, and wants every one refused by that role, with the
// connection still serving.

// server is what node's servers have in common.
type server interface {
	Serve(net.Listener) error
	Close() error
}

// serve runs srv on a loopback port for the test's lifetime.
func serve(t *testing.T, srv server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

// servePeer runs a stand-in role on a loopback port: handle answers each
// envelope, an error as a KindError reply.
func servePeer(t *testing.T, handle func(*wire.Envelope) (*wire.Envelope, error)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			raw, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				c := wire.NewConn(raw, 10*time.Second)
				defer c.Close()
				for {
					env, err := c.Recv()
					if err != nil {
						return
					}
					reply, err := handle(env)
					if err != nil {
						err = c.SendError(err)
					} else {
						err = c.Send(reply)
					}
					if err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// dialRaw opens one wire connection to addr.
func dialRaw(t *testing.T, addr string) *wire.Conn {
	t.Helper()
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	c := wire.NewConn(raw, 30*time.Second)
	t.Cleanup(func() { c.Close() })
	return c
}

// refused sends env over c and wants a KindError reply that says want,
// then wants the same connection to answer next with its reply kind.
func refused(t *testing.T, c *wire.Conn, env *wire.Envelope, want string, next *wire.Envelope, nextKind wire.Kind) {
	t.Helper()
	_, err := c.CallContext(context.Background(), env, wire.KindAck)
	var remote *wire.RemoteError
	if !errors.As(err, &remote) || !strings.Contains(remote.Msg, want) {
		t.Fatalf("%s: err = %v, want a KindError reply saying %q", env.Kind, err, want)
	}
	if _, err := c.CallContext(context.Background(), next, nextKind); err != nil {
		t.Fatalf("%s after the refusal: %v", next.Kind, err)
	}
}

// refusalWorld is one deployment's parties: an STP, an SU registered
// with it, and the slot layout the SDC packs for.
type refusalWorld struct {
	params pisa.Params
	stp    *pisa.STP
	su     *pisa.SU
	codec  *paillier.SlotCodec
	log    *slog.Logger
}

func newRefusalWorld(t *testing.T) *refusalWorld {
	t.Helper()
	params := pisa.TestParams(testWatchParams(t))
	stp, err := pisa.NewSTP(rand.Reader, params.PaillierBits)
	if err != nil {
		t.Fatal(err)
	}
	planner, err := watch.NewPlanner(params.Watch)
	if err != nil {
		t.Fatal(err)
	}
	su, err := pisa.NewSU(rand.Reader, "su", 7, params, planner, stp.GroupKey())
	if err != nil {
		t.Fatal(err)
	}
	if err := stp.RegisterSU("su", su.PublicKey()); err != nil {
		t.Fatal(err)
	}
	codec, err := params.SlotCodec()
	if err != nil {
		t.Fatal(err)
	}
	log := slog.New(slog.NewTextHandler(logWriter{t}, &slog.HandlerOptions{Level: slog.LevelWarn}))
	return &refusalWorld{params: params, stp: stp, su: su, codec: codec, log: log}
}

// request prepares one SU request over the whole grid.
func (w *refusalWorld) request(t *testing.T) *pisa.TransmissionRequest {
	t.Helper()
	req, err := w.su.PrepareRequest(map[int]int64{0: 100}, geo.Disclosure{})
	if err != nil {
		t.Fatal(err)
	}
	return req
}

// serveSDC serves a full-window SDC over stp and returns its address.
func (w *refusalWorld) serveSDC(t *testing.T, stp pisa.STPService) string {
	t.Helper()
	sdc, err := pisa.NewSDC("sdc", w.params, nil, stp)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sdc.Close() })
	return serve(t, node.NewSDCServer(sdc, w.log, 30*time.Second))
}

// logWriter adapts t.Log for slog output.
type logWriter struct{ t *testing.T }

func (w logWriter) Write(p []byte) (int, error) {
	w.t.Log(string(p))
	return len(p), nil
}

func one() *paillier.Ciphertext { return &paillier.Ciphertext{C: big.NewInt(1)} }

// TestSignRequestGobRejectsMalformed: the STP server refuses every sign
// request whose SUID, ciphertexts or slot geometry it cannot use.
func TestSignRequestGobRejectsMalformed(t *testing.T) {
	w := newRefusalWorld(t)
	c := dialRaw(t, serve(t, node.NewSTPServer(w.stp, w.log, 30*time.Second)))
	answerBits := w.params.AnswerBits(w.su.PublicKey().Bits())
	cases := []struct {
		name   string
		mutate func(*pisa.SignRequest)
		want   string
	}{
		{"long SUID", func(r *pisa.SignRequest) { r.SUID = strings.Repeat("x", 4097) }, "not registered"},
		{"nil value", func(r *pisa.SignRequest) { r.V = []*paillier.Ciphertext{{}} }, "ciphertext outside"},
		{"non-positive", func(r *pisa.SignRequest) { r.V = []*paillier.Ciphertext{{C: big.NewInt(0)}} }, "ciphertext outside"},
		// What an SDC on the removed one-cell-per-ciphertext layout sent.
		{"zero slots", func(r *pisa.SignRequest) { r.Slots = 0 }, "slot count 0"},
		{"negative slots", func(r *pisa.SignRequest) { r.Slots = -1 }, "slot count -1"},
		{"narrow slot", func(r *pisa.SignRequest) { r.SlotBits = 2 }, "slot width 2"},
		{"huge slot", func(r *pisa.SignRequest) { r.SlotBits = 1<<20 + 1 }, "slot width"},
		{"overflowing slot", func(r *pisa.SignRequest) { r.Slots, r.SlotBits = 2, 1<<62 }, "slot width"},
		{"negative answer width", func(r *pisa.SignRequest) { r.AnswerBits = -1 }, "answer bits"},
		{"huge answer width", func(r *pisa.SignRequest) { r.AnswerBits = 1<<20 + 1 }, "slot count"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := &pisa.SignRequest{
				SUID:  "su",
				V:     []*paillier.Ciphertext{one()},
				Slots: w.codec.Slots(), SlotBits: w.codec.SlotBits(), AnswerBits: answerBits,
			}
			tc.mutate(req)
			refused(t, c, &wire.Envelope{Kind: wire.KindConvertRequest, SignRequest: req}, tc.want,
				&wire.Envelope{Kind: wire.KindGroupKeyRequest}, wire.KindGroupKey)
		})
	}
}

// TestRegisterSURefusesLongID: the STP stores and journals an SU id, so
// it refuses one over 4 096 bytes, as a sign request's SUID was capped.
func TestRegisterSURefusesLongID(t *testing.T) {
	w := newRefusalWorld(t)
	c := dialRaw(t, serve(t, node.NewSTPServer(w.stp, w.log, 30*time.Second)))
	env := &wire.Envelope{Kind: wire.KindRegisterSU, SUID: strings.Repeat("x", 4097), Paillier: w.su.PublicKey()}
	refused(t, c, env, "SU id of 4097 bytes", &wire.Envelope{Kind: wire.KindGroupKeyRequest}, wire.KindGroupKey)
}

// TestSignRequestGobRejectsOversizedCiphertext: a ciphertext far wider
// than n^2 reaches the STP and is refused there.
func TestSignRequestGobRejectsOversizedCiphertext(t *testing.T) {
	w := newRefusalWorld(t)
	c := dialRaw(t, serve(t, node.NewSTPServer(w.stp, w.log, 30*time.Second)))
	req := &pisa.SignRequest{
		SUID:  "su",
		V:     []*paillier.Ciphertext{{C: new(big.Int).Lsh(big.NewInt(1), 8<<16)}},
		Slots: w.codec.Slots(), SlotBits: w.codec.SlotBits(),
		AnswerBits: w.params.AnswerBits(w.su.PublicKey().Bits()),
	}
	refused(t, c, &wire.Envelope{Kind: wire.KindConvertRequest, SignRequest: req}, "ciphertext outside",
		&wire.Envelope{Kind: wire.KindGroupKeyRequest}, wire.KindGroupKey)
}

// TestSignResponseGobRejectsMalformed: an STP that answers with a
// negative ciphertext fails the SU's request at the SDC, which reads the
// answer, and the SDC server serves on.
func TestSignResponseGobRejectsMalformed(t *testing.T) {
	w := newRefusalWorld(t)
	hostile := servePeer(t, func(env *wire.Envelope) (*wire.Envelope, error) {
		switch env.Kind {
		case wire.KindGroupKeyRequest:
			return &wire.Envelope{Kind: wire.KindGroupKey, Paillier: w.stp.GroupKey()}, nil
		case wire.KindSUKeyRequest:
			pk, err := w.stp.SUKey(env.SUID)
			return &wire.Envelope{Kind: wire.KindSUKey, Paillier: pk}, err
		case wire.KindConvertRequest:
			resp, err := w.stp.ConvertSigns(env.SignRequest)
			if err != nil {
				return nil, err
			}
			resp.X[0] = &paillier.Ciphertext{C: big.NewInt(-3)}
			return &wire.Envelope{Kind: wire.KindConvertResponse, SignResponse: resp}, nil
		}
		return nil, errors.New("unexpected kind")
	})
	stp, err := node.DialSTP(hostile, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { stp.Close() })
	c := dialRaw(t, w.serveSDC(t, stp))
	refused(t, c, &wire.Envelope{Kind: wire.KindSURequest, Request: w.request(t)}, "ciphertext outside",
		&wire.Envelope{Kind: wire.KindEColumnRequest, Block: 0}, wire.KindEColumn)
}

// TestShardAnswerGob: a shard that answers with an indicator that is no
// ciphertext fails the SU's request at the router, which reads the
// answer, before the router spends a license serial on it, and the
// router's server serves on.
func TestShardAnswerGob(t *testing.T) {
	w := newRefusalWorld(t)
	d, err := deploy.New(deploy.Config{Issuer: "sdc", Params: w.params, STP: w.stp, Windows: 1, Index: 0})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close(false) })
	hostile := servePeer(t, func(env *wire.Envelope) (*wire.Envelope, error) {
		if env.Kind != wire.KindShardQuery {
			return nil, errors.New("unexpected kind")
		}
		ans, err := d.SDC.ProcessShard(env.Request)
		if err != nil {
			return nil, err
		}
		ans.D = append(ans.D, &paillier.Ciphertext{})
		return &wire.Envelope{Kind: wire.KindShardAnswer, ShardAnswer: ans}, nil
	})
	shard := node.DialSDC(hostile, 30*time.Second)
	t.Cleanup(func() { shard.Close() })
	router, err := pisa.NewRouter("sdc", w.params, nil, w.stp, []pisa.ShardService{shard})
	if err != nil {
		t.Fatal(err)
	}
	c := dialRaw(t, serve(t, node.NewSDCServer(router, w.log, 30*time.Second)))
	refused(t, c, &wire.Envelope{Kind: wire.KindSURequest, Request: w.request(t)}, "ciphertext outside",
		&wire.Envelope{Kind: wire.KindEColumnRequest, Block: 0}, wire.KindEColumn)
	if n := router.Serial(); n != 0 {
		t.Fatalf("the refused request moved the license serial to %d", n)
	}
}

// TestPUUpdateGobRejectsMalformed: the SDC server refuses every PU
// update whose identifier, block, layout or ciphertexts it cannot use.
func TestPUUpdateGobRejectsMalformed(t *testing.T) {
	w := newRefusalWorld(t)
	c := dialRaw(t, w.serveSDC(t, w.stp))
	cases := []struct {
		name   string
		mutate func(*pisa.PUUpdate)
		want   string
	}{
		{"long PUID", func(u *pisa.PUUpdate) { u.PUID = watch.PUID(strings.Repeat("p", 4097)) }, "id of 4097 bytes"},
		{"negative block", func(u *pisa.PUUpdate) { u.Block = -1 }, "block -1 invalid"},
		{"empty ciphertext", func(u *pisa.PUUpdate) { u.Cts[0] = &paillier.Ciphertext{} }, "ciphertext 0 is nil"},
		{"negative slots", func(u *pisa.PUUpdate) { u.Slots = -1 }, "packed for -1 slots"},
		{"huge slot", func(u *pisa.PUUpdate) { u.SlotBits = 1<<20 + 1 }, "of 1048577 bits"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			u := &pisa.PUUpdate{PUID: "tv", Slots: w.codec.Slots(), SlotBits: w.codec.SlotBits()}
			for range w.params.Watch.Channels {
				u.Cts = append(u.Cts, one())
			}
			tc.mutate(u)
			refused(t, c, &wire.Envelope{Kind: wire.KindPUUpdate, PUUpdate: u}, tc.want,
				&wire.Envelope{Kind: wire.KindEColumnRequest, Block: 0}, wire.KindEColumn)
		})
	}
}
