package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	ss "stopandstare"
	"stopandstare/internal/serving"
)

// servingStats is what one served pass reports beside its latencies.
type servingStats struct {
	mu    sync.Mutex // guards overheadMS while clients run
	stats serving.StatsResponse
	// overheadMS is client latency minus the server-reported execution time,
	// for every executed (not coalesced) request: queue, JSON and HTTP.
	overheadMS []float64
}

// serveStack is the multi-tenant manager, behind the HTTP server on a
// loopback port (modeLive) or called directly (modeDirect).
type serveStack struct {
	e       *env
	m       mode
	res     *repResult
	mgr     *serving.Manager
	hs      *http.Server
	served  chan error
	url     string
	clients []*http.Client
}

func newServeStack(e *env, m mode, res *repResult) (*serveStack, error) {
	s := &serveStack{e: e, m: m, res: res}
	res.serving = &servingStats{}
	s.mgr = serving.NewManager(serving.Config{BudgetBytes: e.w.serveBudget, MaxInFlight: e.nproc})
	for _, t := range e.w.tenants {
		err := s.mgr.AddTenant(t.name, serving.TenantConfig{
			GraphFile: filepath.Join(e.dir, t.file()), Model: t.model, Session: e.sessionOptions(m)})
		if err != nil {
			s.mgr.Close()
			return nil, err
		}
	}
	if m == modeDirect {
		return s, nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.mgr.Close()
		return nil, err
	}
	s.url = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: serving.NewServer(s.mgr, serving.ServerConfig{}).Handler()}
	s.served = make(chan error, 1)
	go func() { s.served <- s.hs.Serve(ln) }()
	for c := 0; c < e.w.clients; c++ {
		// One keep-alive connection per closed-loop client.
		s.clients = append(s.clients, &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}})
	}
	return s, nil
}

func (s *serveStack) answer(client int, q query) (answer, error) {
	t := s.e.w.tenants[q.tenant]
	if s.m == modeDirect {
		r, err := s.mgr.Maximize(context.Background(), t.name,
			ss.Query{Algorithm: q.algo, K: q.k, Epsilon: q.eps})
		if err != nil {
			return answer{}, err
		}
		return answerOf(r), nil
	}
	body, err := json.Marshal(serving.MaximizeRequest{Tenant: t.name, K: q.k, Epsilon: q.eps, Algorithm: string(q.algo)})
	if err != nil {
		return answer{}, err
	}
	start := time.Now()
	resp, err := s.clients[client].Post(s.url+"/maximize", "application/json", bytes.NewReader(body))
	if err != nil {
		return answer{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512)) // best-effort detail for the error line
		return answer{}, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	var mr serving.MaximizeResponse
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
		return answer{}, err
	}
	end := time.Now()
	if rec := s.e.rec; rec != nil {
		exec := time.Duration(mr.ElapsedMS * float64(time.Millisecond))
		id := rec.add(spanHTTP, 0, 0, start, end)
		if !mr.Coalesced && exec <= end.Sub(start) {
			rec.add(spanExecute, id, 0, end.Add(-exec), end)
		}
	}
	if !mr.Coalesced {
		sv := s.res.serving
		sv.mu.Lock()
		sv.overheadMS = append(sv.overheadMS, end.Sub(start).Seconds()*1e3-mr.ElapsedMS)
		sv.mu.Unlock()
	}
	return answer{seeds: mr.Seeds, influence: mr.Influence, samples: mr.Samples,
		iterations: mr.Iterations, warm: mr.Warm, coalesced: mr.Coalesced}, nil
}

// finish reads the manager's counters the way an operator would, from /stats.
func (s *serveStack) finish() error {
	if s.m == modeDirect {
		return nil
	}
	resp, err := s.clients[0].Get(s.url + "/stats")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(&s.res.serving.stats)
}

func (s *serveStack) close() {
	if s.hs != nil {
		for _, c := range s.clients {
			c.CloseIdleConnections()
		}
		s.hs.Close()
		<-s.served
	}
	s.mgr.Close()
}
