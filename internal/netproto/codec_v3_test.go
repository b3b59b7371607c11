package netproto

import (
	"bytes"
	"io"
	"math/rand"
	"net"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"github.com/deltacache/delta/internal/cost"
	"github.com/deltacache/delta/internal/model"
)

// connOverBuffer returns a Conn whose writes and reads share one
// buffer, so a frame sent on it can be received on it — the
// single-goroutine harness for codec round trips.
func connOverBuffer() *Conn {
	var buf bytes.Buffer
	return NewConn(struct {
		io.Reader
		io.Writer
	}{Reader: &buf, Writer: &buf})
}

// roundTrip sends f and receives it back through the codec.
func roundTrip(t *testing.T, f Frame) Frame {
	t.Helper()
	c := connOverBuffer()
	if err := c.Send(f); err != nil {
		t.Fatalf("send %s: %v", f.Type, err)
	}
	got, err := c.Recv()
	if err != nil {
		t.Fatalf("recv %s: %v", f.Type, err)
	}
	return got
}

// canonical returns body with every zero-length slice, at any depth,
// replaced by nil: the codec decodes empty slices as nil, so this is
// the form in which a body survives a round trip exactly.
func canonical(body any) any {
	v := reflect.New(reflect.TypeOf(body)).Elem()
	v.Set(reflect.ValueOf(body))
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Slice:
			if v.Len() == 0 {
				v.Set(reflect.Zero(v.Type()))
			}
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i))
			}
		}
	}
	walk(v)
	return v.Interface()
}

// TestV3RoundTripSeedFrames pins the binary codec on every seed frame
// shape: type, request ID and body must survive exactly.
func TestV3RoundTripSeedFrames(t *testing.T) {
	for _, f := range seedFrames() {
		f.RequestID = 42
		got := roundTrip(t, f)
		if got.Type != f.Type || got.RequestID != 42 {
			t.Fatalf("%s: frame header mutated: %+v", f.Type, got)
		}
		if want := canonical(f.Body); !reflect.DeepEqual(got.Body, want) {
			t.Errorf("%s: decoded body %+v != sent body %+v", f.Type, got.Body, want)
		}
	}
}

// quickBodies lists every frame vocabulary entry for the property
// test: the body's concrete type is generated randomly per trial.
var quickBodies = []struct {
	t    MsgType
	body any
}{
	{MsgHello, Hello{}},
	{MsgHelloAck, HelloAck{}},
	{MsgQuery, QueryMsg{}},
	{MsgQueryResult, QueryResultMsg{}},
	{MsgUpdateFeed, UpdateFeedMsg{}},
	{MsgShipUpdates, ShipUpdatesMsg{}},
	{MsgUpdates, UpdatesMsg{}},
	{MsgLoadObject, LoadObjectMsg{}},
	{MsgObjectData, ObjectDataMsg{}},
	{MsgInvalidate, InvalidateMsg{}},
	{MsgStats, StatsMsg{}},
	{MsgError, ErrorMsg{}},
	{MsgShardQuery, ShardQueryMsg{}},
	{MsgClusterStats, ClusterStatsMsg{}},
	{MsgAdminResize, AdminResizeMsg{}},
	{MsgRebalanceStatus, RebalanceStatusMsg{}},
	{MsgReshard, ReshardMsg{}},
	{MsgMigrateBegin, MigrateBeginMsg{}},
	{MsgMigrateChunk, MigrateChunkMsg{}},
	{MsgMigrateDone, MigrateDoneMsg{}},
	{MsgObjectBirth, ObjectBirthMsg{}},
	{MsgBirthGrant, BirthGrantMsg{}},
}

// TestV3RoundTripProperty is the codec's self-round-trip property:
// for randomly generated instances of every frame type, encode→decode
// returns the input exactly (frame type, request ID and body, the body
// compared in its canonical form, empty slices as nil).
func TestV3RoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const trials = 25
	for _, entry := range quickBodies {
		typ := reflect.TypeOf(entry.body)
		for trial := 0; trial < trials; trial++ {
			v, ok := quick.Value(typ, rng)
			if !ok {
				t.Fatalf("%s: cannot generate %v", entry.t, typ)
			}
			f := Frame{Type: entry.t, RequestID: uint64(rng.Int63()), Body: canonical(v.Interface())}
			got := roundTrip(t, f)
			if got.Type != f.Type || got.RequestID != f.RequestID {
				t.Fatalf("%s trial %d: header mutated: sent %s/%d, got %s/%d",
					entry.t, trial, f.Type, f.RequestID, got.Type, got.RequestID)
			}
			if !reflect.DeepEqual(got.Body, f.Body) {
				t.Fatalf("%s trial %d: body mutated:\n sent: %#v\n got:  %#v",
					entry.t, trial, f.Body, got.Body)
			}
		}
	}
}

// TestV3TraceTailCompat pins the trace tail's wire contract on the
// three frame types that carry it: an untraced frame encodes with no
// tail at all (byte-identical to pre-trace builds, whose decoders
// reject trailing bytes), a traced frame round-trips its TraceID and
// spans exactly, and a tail-less body decodes as untraced.
func TestV3TraceTailCompat(t *testing.T) {
	span := TraceSpan{Name: "fragment", Node: "n", Shard: 1, Objects: 2,
		Source: "cache", Elapsed: time.Millisecond}
	cases := []struct {
		name              string
		untraced, traced  Frame
		tailLen           int // extra bytes the traced encoding may add
		checkTraced       func(t *testing.T, body any)
		checkUntracedZero func(t *testing.T, body any)
	}{
		{
			name:     "query",
			untraced: Frame{Type: MsgQuery, Body: QueryMsg{Query: model.Query{ID: 1, Objects: []model.ObjectID{1}}}},
			traced:   Frame{Type: MsgQuery, Body: QueryMsg{Query: model.Query{ID: 1, Objects: []model.ObjectID{1}}, TraceID: 0xbeef}},
			checkTraced: func(t *testing.T, body any) {
				if got := body.(QueryMsg).TraceID; got != 0xbeef {
					t.Errorf("TraceID = %#x, want 0xbeef", got)
				}
			},
			checkUntracedZero: func(t *testing.T, body any) {
				if got := body.(QueryMsg).TraceID; got != 0 {
					t.Errorf("untraced TraceID = %#x, want 0", got)
				}
			},
		},
		{
			name:     "shard-query",
			untraced: Frame{Type: MsgShardQuery, Body: ShardQueryMsg{Query: model.Query{ID: 1}, Shard: 1, Fragments: 2}},
			traced:   Frame{Type: MsgShardQuery, Body: ShardQueryMsg{Query: model.Query{ID: 1}, Shard: 1, Fragments: 2, TraceID: 0xbeef}},
			checkTraced: func(t *testing.T, body any) {
				if got := body.(ShardQueryMsg).TraceID; got != 0xbeef {
					t.Errorf("TraceID = %#x, want 0xbeef", got)
				}
			},
			checkUntracedZero: func(t *testing.T, body any) {
				if got := body.(ShardQueryMsg).TraceID; got != 0 {
					t.Errorf("untraced TraceID = %#x, want 0", got)
				}
			},
		},
		{
			name:     "query-result",
			untraced: Frame{Type: MsgQueryResult, Body: QueryResultMsg{QueryID: 1, Source: "cache"}},
			traced: Frame{Type: MsgQueryResult, Body: QueryResultMsg{QueryID: 1, Source: "cache",
				TraceID: 0xbeef, Spans: []TraceSpan{span}}},
			checkTraced: func(t *testing.T, body any) {
				res := body.(QueryResultMsg)
				if res.TraceID != 0xbeef || len(res.Spans) != 1 || !reflect.DeepEqual(res.Spans[0], span) {
					t.Errorf("traced result mutated: %+v", res)
				}
			},
			checkUntracedZero: func(t *testing.T, body any) {
				res := body.(QueryResultMsg)
				if res.TraceID != 0 || res.Spans != nil {
					t.Errorf("untraced result grew a tail: %+v", res)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plain := encodeFrames(t, tc.untraced)
			withTail := encodeFrames(t, tc.traced)
			if len(withTail) <= len(plain) {
				t.Errorf("traced frame (%d bytes) not longer than untraced (%d): tail missing",
					len(withTail), len(plain))
			}
			tc.checkTraced(t, roundTrip(t, tc.traced).Body)
			// The untraced encoding IS the pre-trace wire format: the
			// conditional tail decode must see no trailing bytes (a
			// trailing-byte error would fail the round trip) and leave
			// the trace fields zero.
			tc.checkUntracedZero(t, roundTrip(t, tc.untraced).Body)
		})
	}
}

// TestV3RejectsUnknownBody pins that the v3 encoder refuses a body
// outside the vocabulary instead of writing garbage, and leaves the
// stream clean for the next frame.
func TestV3RejectsUnknownBody(t *testing.T) {
	c := connOverBuffer()
	if err := c.Send(Frame{Type: MsgQuery, Body: struct{ X int }{1}}); err == nil {
		t.Fatal("v3 encoded an unknown body type")
	}
	// The stream must still be usable: nothing was written.
	if err := c.Send(Frame{Type: MsgError, Body: ErrorMsg{Message: "ok"}}); err != nil {
		t.Fatalf("stream poisoned after a rejected encode: %v", err)
	}
	got, err := c.Recv()
	if err != nil || got.Body.(ErrorMsg).Message != "ok" {
		t.Fatalf("recv after rejected encode: %v %+v", err, got)
	}
}

// TestV3OversizedFrameRejectedAtSender pins the sender-side MaxFrame
// check: an oversized frame fails before any byte reaches the wire.
func TestV3OversizedFrameRejectedAtSender(t *testing.T) {
	c := connOverBuffer()
	err := c.Send(Frame{Type: MsgObjectData, Body: ObjectDataMsg{
		Payload: make([]byte, MaxFrame+1),
	}})
	if err == nil {
		t.Fatal("oversized v3 frame accepted at the sender")
	}
}

// TestV3DecodedFrameOwnsItsMemory is the buffer-reuse hazard test the
// v3 decoder's ownership rule exists for: a decoded QueryResultMsg
// payload held across subsequent Recvs on the same connection must not
// be corrupted by the receive scratch buffer being reused. Run under
// -race (CI does), aliasing would also surface as a data race when the
// holder reads while Recv writes.
func TestV3DecodedPayloadOwnershipAcrossRecv(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	sender, receiver := NewConn(a), NewConn(b)

	scale := DefaultScale()
	const frames = 16
	go func() {
		for i := 0; i < frames; i++ {
			// The sender uses the pooled payload path the servers use,
			// so this also pins that a recycled send buffer cannot leak
			// into a peer's decoded frame.
			payload, release := NewPayload(scale, 2*cost.GB, int64(i))
			_ = sender.Send(Frame{Type: MsgQueryResult, Body: QueryResultMsg{
				QueryID: model.QueryID(i),
				Logical: 2 * cost.GB,
				Payload: payload,
				Source:  "cache",
			}, Release: release})
		}
	}()

	first, err := receiver.Recv()
	if err != nil {
		t.Fatal(err)
	}
	held := first.Body.(QueryResultMsg).Payload
	want := MakePayload(scale, 2*cost.GB, 0)
	if !bytes.Equal(held, want) {
		t.Fatal("first decoded payload wrong before any reuse")
	}
	done := make(chan struct{})
	go func() {
		// Concurrent reader of the held payload while later Recvs run:
		// aliasing the receive scratch would be a data race here.
		defer close(done)
		for i := 0; i < 1000; i++ {
			if held[i%len(held)] != want[i%len(want)] {
				t.Error("held payload mutated concurrently")
				return
			}
		}
	}()
	for i := 1; i < frames; i++ {
		f, err := receiver.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if got := f.Body.(QueryResultMsg).Payload; !bytes.Equal(got, MakePayload(scale, 2*cost.GB, int64(i))) {
			t.Fatalf("frame %d payload corrupt", i)
		}
	}
	<-done
	if !bytes.Equal(held, want) {
		t.Fatal("payload held across Recvs was corrupted: the decoder aliased its scratch buffer")
	}
}

// codecRoundTripAllocs measures steady-state allocations of one
// send+recv of a representative QueryResultMsg.
func codecRoundTripAllocs() float64 {
	c := connOverBuffer()
	scale := DefaultScale()
	frame := Frame{Type: MsgQueryResult, RequestID: 9, Body: QueryResultMsg{
		QueryID: 7,
		Logical: cost.GB,
		Rows: []ResultRow{
			{ObjID: 1, RA: 10, Dec: -5, R: 17.1}, {ObjID: 2, RA: 11, Dec: -6, R: 18.2},
			{ObjID: 3, RA: 12, Dec: -7, R: 19.3}, {ObjID: 4, RA: 13, Dec: -8, R: 20.4},
		},
		Payload: MakePayload(scale, cost.GB, 7),
		Source:  "repository",
		Elapsed: 3 * time.Millisecond,
	}}
	return testing.AllocsPerRun(300, func() {
		if err := c.Send(frame); err != nil {
			panic(err)
		}
		if _, err := c.Recv(); err != nil {
			panic(err)
		}
	})
}

// v3AllocBudget is the absolute allocation budget for one
// QueryResultMsg encode+decode, set at the measured count: the boxed
// decoded body, its row slice and its payload copy, plus the harness
// buffer's growth. Encoding allocates nothing (pooled scratch
// buffers).
const v3AllocBudget = 4

// TestV3AllocBudget enforces the codec's allocation budget in tier-1:
// a QueryResultMsg round trip allocates at most v3AllocBudget times.
// Allocation counts are deterministic, so this is stable where ns/op
// would be noisy; BenchmarkCodec tracks ns/op.
func TestV3AllocBudget(t *testing.T) {
	allocs := codecRoundTripAllocs()
	t.Logf("allocs per encode+decode: %.1f (budget %d)", allocs, v3AllocBudget)
	if allocs > v3AllocBudget {
		t.Errorf("QueryResultMsg round trip allocates %.1f/op, over the budget of %d", allocs, v3AllocBudget)
	}
}
