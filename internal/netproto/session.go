package netproto

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// RemoteError is a failure the remote side reported in an ErrorMsg
// frame (as opposed to a transport failure).
type RemoteError struct {
	Message string
}

func (e *RemoteError) Error() string { return e.Message }

// SessionConfig parameterizes DialSession.
type SessionConfig struct {
	// PoolSize is how many TCP connections back the session. Each
	// connection multiplexes any number of in-flight requests, so the
	// pool mainly spreads encode/flush work; small values (2–4)
	// suffice. Defaults to 1.
	PoolSize int
	// DialTimeout bounds each connection attempt and its handshake.
	// Defaults to 5s.
	DialTimeout time.Duration
	// DialRetry, when positive, keeps retrying a refused connection
	// for up to this total elapsed time with capped exponential
	// backoff and jitter. Connection-refused is the transient race of
	// a dialer starting alongside its server (a cluster router racing
	// shard startup, a client racing the router); other dial failures
	// (no route, timeout, DNS) still fail immediately. Zero disables
	// retrying.
	DialRetry time.Duration
}

// defaultDialTimeout bounds a connection attempt and its handshake
// when the caller sets no timeout.
const defaultDialTimeout = 5 * time.Second

// Session is a concurrency-safe, multiplexed request/response channel
// to a Delta node: every request gets a fresh RequestID, requests
// round-robin across a small connection pool, a per-connection reader
// goroutine demultiplexes replies by RequestID, and any number of
// goroutines may call RoundTrip concurrently.
type Session struct {
	cfg   SessionConfig
	conns []*sessionConn
	reqID atomic.Uint64
	next  atomic.Uint64

	closeOnce sync.Once
	closed    atomic.Bool
}

// sessionConn is one pooled connection with its demux state.
type sessionConn struct {
	nc net.Conn
	c  *Conn

	mu      sync.Mutex
	pending map[uint64]chan roundTripResult
	err     error // sticky after the reader dies
	dead    bool
}

type roundTripResult struct {
	frame Frame
	err   error
}

// DialSession connects a multiplexed session to addr, announcing the
// given role ("cache" or "client"). Every pooled connection performs
// the Hello/HelloAck handshake before the session is usable.
func DialSession(addr, role string, cfg SessionConfig) (*Session, error) {
	if cfg.PoolSize <= 0 {
		cfg.PoolSize = 1
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = defaultDialTimeout
	}
	s := &Session{cfg: cfg}
	for i := 0; i < cfg.PoolSize; i++ {
		sc, err := dialSessionConn(addr, role, cfg)
		if err != nil {
			s.Close()
			return nil, err
		}
		s.conns = append(s.conns, sc)
		go sc.readLoop()
	}
	return s, nil
}

// dialRetry dials addr, retrying connection-refused failures with
// capped exponential backoff plus jitter for up to cfg.DialRetry of
// elapsed time. The jitter desynchronizes a fleet of dialers all
// racing the same server's startup.
func dialRetry(addr string, cfg SessionConfig) (net.Conn, error) {
	deadline := time.Now().Add(cfg.DialRetry)
	backoff := 10 * time.Millisecond
	const maxBackoff = 500 * time.Millisecond
	for {
		nc, err := net.DialTimeout("tcp", addr, cfg.DialTimeout)
		if err == nil || cfg.DialRetry <= 0 ||
			!errors.Is(err, syscall.ECONNREFUSED) || !time.Now().Before(deadline) {
			return nc, err
		}
		// Full jitter over (0, backoff]: retries spread instead of
		// thundering onto the server the instant it binds.
		sleep := time.Duration(rand.Int64N(int64(backoff))) + 1
		if remain := time.Until(deadline); sleep > remain {
			sleep = remain
		}
		time.Sleep(sleep)
		if backoff < maxBackoff {
			backoff *= 2
		}
	}
}

func dialSessionConn(addr, role string, cfg SessionConfig) (*sessionConn, error) {
	nc, err := dialRetry(addr, cfg)
	if err != nil {
		return nil, fmt.Errorf("netproto: dial %s: %w", addr, err)
	}
	c, err := Handshake(nc, role, cfg.DialTimeout)
	if err != nil {
		nc.Close()
		return nil, err
	}
	return &sessionConn{nc: nc, c: c, pending: make(map[uint64]chan roundTripResult)}, nil
}

// readLoop demultiplexes replies by RequestID. Replies with no waiter
// (a cancelled RoundTrip) are dropped.
func (sc *sessionConn) readLoop() {
	for {
		f, err := sc.c.Recv()
		if err != nil {
			sc.fail(err)
			return
		}
		sc.mu.Lock()
		ch, ok := sc.pending[f.RequestID]
		delete(sc.pending, f.RequestID)
		sc.mu.Unlock()
		if ok {
			ch <- roundTripResult{frame: f} // buffered; never blocks
		}
	}
}

// fail marks the connection dead and unblocks every waiter.
func (sc *sessionConn) fail(err error) {
	sc.mu.Lock()
	sc.dead = true
	sc.err = err
	pending := sc.pending
	sc.pending = make(map[uint64]chan roundTripResult)
	sc.mu.Unlock()
	for _, ch := range pending {
		ch <- roundTripResult{err: err}
	}
}

// RoundTrip sends one request and waits for its correlated reply,
// honoring ctx for cancellation. An ErrorMsg reply is converted to a
// *RemoteError. Safe for concurrent use.
func (s *Session) RoundTrip(ctx context.Context, f Frame) (Frame, error) {
	if s.closed.Load() {
		return Frame{}, net.ErrClosed
	}
	sc := s.pick()
	if sc == nil {
		return Frame{}, fmt.Errorf("netproto: session has no live connections")
	}
	id := s.reqID.Add(1)
	f.RequestID = id
	ch := make(chan roundTripResult, 1)
	sc.mu.Lock()
	if sc.dead {
		err := sc.err
		sc.mu.Unlock()
		return Frame{}, err
	}
	sc.pending[id] = ch
	sc.mu.Unlock()
	if err := sc.c.Send(f); err != nil {
		// A send failure means the write side is broken; stop routing
		// new requests here. The read side keeps draining replies for
		// requests already in flight until it fails on its own.
		sc.mu.Lock()
		delete(sc.pending, id)
		sc.dead = true
		if sc.err == nil {
			sc.err = err
		}
		sc.mu.Unlock()
		return Frame{}, err
	}
	select {
	case res := <-ch:
		if res.err != nil {
			return Frame{}, res.err
		}
		return checkError(res.frame)
	case <-ctx.Done():
		sc.mu.Lock()
		delete(sc.pending, id)
		sc.mu.Unlock()
		return Frame{}, ctx.Err()
	}
}

func checkError(f Frame) (Frame, error) {
	if e, ok := f.Body.(ErrorMsg); ok {
		return Frame{}, &RemoteError{Message: e.Message}
	}
	return f, nil
}

// pick returns a live connection, preferring round-robin order. The
// counter stays uint64 throughout: an int conversion would go
// negative on 32-bit platforms once it wraps, and a negative modulo
// would panic the indexing.
func (s *Session) pick() *sessionConn {
	n := uint64(len(s.conns))
	start := s.next.Add(1)
	for i := uint64(0); i < n; i++ {
		sc := s.conns[(start+i)%n]
		sc.mu.Lock()
		dead := sc.dead
		sc.mu.Unlock()
		if !dead {
			return sc
		}
	}
	return nil
}

// Live reports whether the session still has at least one usable
// connection (routers use it to snapshot shard liveness without
// issuing a probe request).
func (s *Session) Live() bool {
	if s.closed.Load() {
		return false
	}
	for _, sc := range s.conns {
		sc.mu.Lock()
		dead := sc.dead
		sc.mu.Unlock()
		if !dead {
			return true
		}
	}
	return false
}

// Close tears the session down; in-flight round trips fail.
func (s *Session) Close() error {
	var err error
	s.closeOnce.Do(func() {
		s.closed.Store(true)
		for _, sc := range s.conns {
			if e := sc.nc.Close(); e != nil && err == nil {
				err = e
			}
		}
	})
	return err
}
