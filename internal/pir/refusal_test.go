package pir_test

import (
	"bytes"
	"context"
	"errors"
	"log/slog"
	"net"
	"strings"
	"testing"
	"time"

	"pisa/internal/node"
	"pisa/internal/pir"
	"pisa/internal/watch"
	"pisa/internal/wire"
)

// serveReplica runs handle as a replica on a loopback port: it answers
// each envelope, an error as a KindError reply.
func serveReplica(t *testing.T, handle func(*wire.Envelope) (*wire.Envelope, error)) string {
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

// TestGobMalformedFrames: the PIR frames are plain structs that gob
// encodes directly, and the role that reads a frame refuses what it
// cannot use. A real replica server refuses each hostile query with a
// KindError reply and serves the same connection on; the PIR client
// refuses each hostile answer row. A hostile update handed to the
// database is refused before it reaches the registry.
func TestGobMalformedFrames(t *testing.T) {
	db, err := pir.NewDatabase(pir.TestWatchParams(t))
	if err != nil {
		t.Fatal(err)
	}
	log := slog.New(slog.NewTextHandler(&bytes.Buffer{}, nil))
	srv := node.NewPIRServer(db, log, 10*time.Second)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() { srv.Close() })
	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c := wire.NewConn(raw, 10*time.Second)
	t.Cleanup(func() { c.Close() })

	for _, tc := range []struct {
		name string
		env  *wire.Envelope
		want string
	}{
		{"query-empty-sel", &wire.Envelope{Kind: wire.KindPIRQuery, PIRQuery: &pir.Query{}}, "selection vector is 0 bytes"},
		{"query-huge-sel", &wire.Envelope{Kind: wire.KindPIRQuery, PIRQuery: &pir.Query{Sel: make([]byte, 1<<20+1)}}, "selection vector is 1048577 bytes"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := c.CallContext(context.Background(), tc.env, wire.KindPIRAnswer)
			var remote *wire.RemoteError
			if !errors.As(err, &remote) || !strings.Contains(remote.Msg, tc.want) {
				t.Fatalf("err = %v, want a KindError reply saying %q", err, tc.want)
			}
			if _, err := c.CallContext(context.Background(), &wire.Envelope{Kind: wire.KindPIRMetaRequest}, wire.KindPIRMeta); err != nil {
				t.Fatalf("meta request after the refusal: %v", err)
			}
		})
	}

	for _, tc := range []struct {
		name string
		u    *pir.Update
		want string
	}{
		{"update-empty-puid", &pir.Update{Block: 1}, "PUID of 0 bytes"},
		{"update-long-puid", &pir.Update{PUID: watch.PUID(strings.Repeat("x", 4097)), Block: 1}, "PUID of 4097 bytes"},
		{"update-negative-block", &pir.Update{PUID: "p", Block: -1, Channel: -1}, "negative block -1"},
		{"update-negative-signal", &pir.Update{PUID: "p", Channel: -1, SignalUnits: -5}, "signal -5"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			version := db.Meta().Version
			if err := db.ApplyUpdate(tc.u); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want a refusal saying %q", err, tc.want)
			}
			if v := db.Meta().Version; v != version {
				t.Fatalf("version %d after a refused update, want %d", v, version)
			}
		})
	}

	for _, tc := range []struct {
		name string
		row  []byte
	}{
		{"answer-empty-row", nil},
		{"answer-huge-row", make([]byte, 1<<20+1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			hostile := func(env *wire.Envelope) (*wire.Envelope, error) {
				if env.Kind == wire.KindPIRMetaRequest {
					m := db.Meta()
					return &wire.Envelope{Kind: wire.KindPIRMeta, PIRMeta: &m}, nil
				}
				return &wire.Envelope{Kind: wire.KindPIRAnswer, PIRAnswer: &pir.Answer{Version: db.Meta().Version, Row: tc.row}}, nil
			}
			client, err := node.DialPIRWith(node.Options{DialTimeout: time.Second, CallTimeout: 5 * time.Second},
				2, serveReplica(t, hostile), serveReplica(t, hostile))
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()
			if _, _, err := client.Fetch(context.Background(), 3); err == nil || !strings.Contains(err.Error(), "malformed answer row") {
				t.Fatalf("err = %v, want the client to refuse the row", err)
			}
		})
	}
}
