package netproto

import (
	"errors"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// prev3Fixture reads a handshake frame recorded from a build that
// predates v3-only framing (testdata/prev3): its Hello and HelloAck
// rode gob, whatever codec the connection switched to afterwards.
//
//	hello-v1.bin     the lockstep (v1) dialer's Hello{Role: "client"}
//	hello-v3.bin     the default dialer's Hello{Role: "client", Version: 3}
//	helloack-v2.bin  a v2-pinned server's HelloAck{Version: 2}
func prev3Fixture(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "prev3", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestHandshakeV3Matrix pins the handshake on both sides. An acceptor
// running ServeHandshake takes a v3 Hello announcing v3 and refuses
// everything else in its one Recv: a v3 Hello announcing an older
// version gets a MsgError naming the v3 requirement, and a pre-v3
// build's gob Hello fails as ErrNotV3 on its first four bytes instead
// of reading as a 17 MB frame. Either way the serving goroutine exits.
// A dialer running Handshake against a pre-v3 or silent server fails
// with an error saying the peer may predate v3-only framing.
func TestHandshakeV3Matrix(t *testing.T) {
	accept := []struct {
		name      string
		hello     []byte  // the first bytes the dialer writes
		serverErr error   // nil: the Hello is acknowledged
		reply     MsgType // what the dialer's one Recv sees; 0: a closed stream
	}{
		{"v3-client-v3-server", encodeFrames(t, Frame{Type: MsgHello, Body: Hello{Role: "client", Version: ProtoV3}}), nil, MsgHelloAck},
		{"v2-pinned-client-v3-server", encodeFrames(t, Frame{Type: MsgHello, Body: Hello{Role: "client", Version: 2}}), ErrVersion, MsgError},
		{"lockstep-client-v3-server", prev3Fixture(t, "hello-v1.bin"), ErrNotV3, 0},
		{"pre-v3-client-v3-server", prev3Fixture(t, "hello-v3.bin"), ErrNotV3, 0},
	}
	for _, tc := range accept {
		t.Run(tc.name, func(t *testing.T) {
			cli, srv := net.Pipe()
			defer cli.Close()
			served := make(chan error, 1)
			go func() {
				defer srv.Close()
				_, err := ServeHandshake(NewConn(srv))
				served <- err
			}()
			go func() { _, _ = cli.Write(tc.hello) }() // a refusing server may close mid-write
			cli.SetReadDeadline(time.Now().Add(5 * time.Second))
			f, err := NewConn(cli).Recv()
			switch {
			case tc.reply == 0:
				if !IsClosed(err) {
					t.Fatalf("dialer Recv = %v, %v; want the stream closed", f.Type, err)
				}
			case err != nil:
				t.Fatalf("dialer Recv: %v", err)
			case f.Type != tc.reply:
				t.Fatalf("dialer Recv = %s, want %s", f.Type, tc.reply)
			case tc.reply == MsgError && !strings.Contains(f.Body.(ErrorMsg).Message, "only protocol v3"):
				t.Fatalf("refusal %q does not name the v3 requirement", f.Body.(ErrorMsg).Message)
			}
			select {
			case err := <-served:
				if !errors.Is(err, tc.serverErr) {
					t.Fatalf("ServeHandshake = %v, want %v", err, tc.serverErr)
				}
				if errors.Is(err, ErrNotV3) && !strings.Contains(err.Error(), "pre-v3 build?") {
					t.Fatalf("refusal %q does not name the pre-v3 peer", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("serving goroutine did not exit")
			}
		})
	}

	dial := []struct {
		name    string
		answer  []byte // what the server writes after reading the Hello; nil: silence
		wantErr error
	}{
		{"v3-client-v2-pinned-server", prev3Fixture(t, "helloack-v2.bin"), ErrNotV3},
		{"v3-client-silent-server", nil, os.ErrDeadlineExceeded},
	}
	for _, tc := range dial {
		t.Run(tc.name, func(t *testing.T) {
			cli, srv := net.Pipe()
			defer cli.Close()
			defer srv.Close()
			go func() {
				if _, err := NewConn(srv).recvHandshake(); err != nil || tc.answer == nil {
					return
				}
				_, _ = srv.Write(tc.answer) // the dialer may hang up first
			}()
			start := time.Now()
			_, err := Handshake(cli, "client", 200*time.Millisecond)
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("Handshake = %v, want %v", err, tc.wantErr)
			}
			if !strings.Contains(err.Error(), "may predate v3-only") {
				t.Fatalf("handshake error %q does not say the peer may predate v3-only", err)
			}
			if elapsed := time.Since(start); elapsed > 2*time.Second {
				t.Fatalf("handshake took %v to fail", elapsed)
			}
		})
	}
}
