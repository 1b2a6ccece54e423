package main

import (
	"context"
	"io"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/service"
)

// clientConns is the most client connections the benchmark opens.
const clientConns = 2

// httpServer is a service.Server on a loopback listener plus the client the
// benchmark reaches it through.
type httpServer struct {
	client    *service.Client
	body      *atomic.Int64 // response body bytes the client has read
	srv       *service.Server
	hs        *http.Server
	transport *http.Transport
	served    chan error
}

func startServer(eng *repro.Engine, dir string) (*httpServer, error) {
	srv, err := service.New(service.Config{Engine: eng, StateDir: dir})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Close()
		return nil, err
	}
	s := &httpServer{
		body:      new(atomic.Int64),
		srv:       srv,
		hs:        &http.Server{Handler: srv},
		transport: &http.Transport{MaxConnsPerHost: clientConns, MaxIdleConnsPerHost: clientConns},
		served:    make(chan error, 1),
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	s.client = service.NewClient("http://"+ln.Addr().String(),
		&http.Client{Transport: countingTransport{s.transport, s.body}})
	return s, nil
}

// close stops the listener, waits for in-flight requests and the serve
// goroutine, and closes the service (which checkpoints its streams).
func (s *httpServer) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx)
	<-s.served
	s.transport.CloseIdleConnections()
	_ = s.srv.Close()
}

// hitBytes is the body size of one cache-hit decompose reply.
func (s *httpServer) hitBytes(tensorID string, spec repro.Spec) (float64, error) {
	s.body.Store(0)
	_, _, err := s.client.Decompose(context.Background(),
		service.DecomposeRequest{TensorID: tensorID, Spec: service.SpecRequest{Full: &spec}})
	return float64(s.body.Load()), err
}

// countingTransport counts the response body bytes read through it.
type countingTransport struct {
	base http.RoundTripper
	n    *atomic.Int64
}

func (t countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.base.RoundTrip(req)
	if err == nil {
		resp.Body = countingBody{resp.Body, t.n}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}
