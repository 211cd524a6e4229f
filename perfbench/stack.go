package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"alid/internal/engine"
	"alid/internal/server"
)

// stack is the serving path assembled the way alidd assembles it: an
// engine.Serving handed to server.New, whose handler serves a net/http
// listener on 127.0.0.1. With a tracer, the engine is wrapped in the
// tracing decorator and the handler in the tracing middleware.
type stack struct {
	eng  engine.Serving
	hs   *http.Server
	url  string
	errc chan error
}

// startStack serves eng on an ephemeral loopback port and returns once the
// listener answers /healthz.
func startStack(eng engine.Serving, tr *tracer) (*stack, error) {
	served := eng
	if tr != nil {
		served = tracedServing{Serving: eng, t: tr}
	}
	h := server.New(served, server.Options{}).Handler()
	if tr != nil {
		h = tr.middleware(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &stack{eng: eng, hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), errc: make(chan error, 1)}
	go func() { s.errc <- s.hs.Serve(ln) }()
	resp, err := http.Get(s.url + "/healthz")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: status %d", resp.StatusCode)
		}
	}
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// close stops the listener, waits for the serve goroutine and closes the
// engine.
func (s *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.errc; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := s.eng.Close(); err == nil {
		err = cerr
	}
	return err
}

// newTransport returns the client side of the load: at most conns
// keep-alive connections to the stack.
func newTransport(conns int) *http.Transport {
	return &http.Transport{
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
	}
}

// client is one closed-loop load generator: each call waits for the reply
// before returning. Not safe for concurrent use.
type client struct {
	hc  *http.Client
	url string
	tr  *tracer
	buf bytes.Buffer
}

func newClient(tr http.RoundTripper, url string, t *tracer) *client {
	return &client{hc: &http.Client{Transport: tr}, url: url, tr: t}
}

// post sends body to path and returns the status and the response body,
// which stays valid until the next call. op names the request in spans.
func (c *client) post(path, op string, body []byte) (int, []byte, error) {
	i, st := c.tr.begin()
	req, err := http.NewRequest(http.MethodPost, c.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if i >= 0 {
		req.Header.Set(hdrSpan, strconv.FormatInt(i, 10))
		req.Header.Set(hdrOp, op)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	c.tr.end(i, st, "client."+op, i, -1)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

// phase is one closed-loop run: per-request latencies and completion times
// (offsets from the phase start) in request order, and the phase's wall time.
type phase struct {
	lat, ends []time.Duration
	failed    int
	elapsed   time.Duration
}

// closedLoop sends requests from through to-1, request k on client
// k mod len(cls); each client waits for its reply before sending the next.
// do reports whether the reply was correct.
func closedLoop(cls []*client, from, to int, do func(c *client, k int) bool) phase {
	p := phase{lat: make([]time.Duration, to-from), ends: make([]time.Duration, to-from)}
	var failed atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for ci, c := range cls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := from + ci; k < to; k += len(cls) {
				s := time.Now()
				ok := do(c, k)
				p.lat[k-from] = time.Since(s)
				p.ends[k-from] = time.Since(t0)
				if !ok {
					failed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	p.elapsed = time.Since(t0)
	p.failed = int(failed.Load())
	return p
}
