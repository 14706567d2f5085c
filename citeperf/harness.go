package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/server"
)

// instance is one served system: the fixture in a durable data dir behind
// a server.Server on a loopback listener, all with shipped defaults.
type instance struct {
	dir    string
	sys    *core.System
	srv    *server.Server
	base   string
	client *client
	served chan error
}

// newSystemInMemory builds the fixture without durability.
func newSystemInMemory() (*core.System, error) {
	sys, err := experiments.GtoPdbSystem(families)
	if err != nil {
		return nil, fmt.Errorf("fixture: %w", err)
	}
	return sys, nil
}

// newSystem builds the fixture as a durable system in dir and makes the
// first commit.
func newSystem(dir string) (*core.System, error) {
	sys, err := newSystemInMemory()
	if err != nil {
		return nil, err
	}
	if err := sys.EnableDurability(dir, core.DurableOptions{}); err != nil {
		return nil, fmt.Errorf("enable durability: %w", err)
	}
	if _, _, err := sys.CommitVersioned("citeperf initial load"); err != nil {
		return nil, fmt.Errorf("initial commit: %w", err)
	}
	return sys, nil
}

// startInstance sets up one instance and returns it with its set-up time:
// fixture build, EnableDurability, first commit, and the listener
// answering /healthz.
func startInstance(dir string, conns int) (*instance, time.Duration, error) {
	start := time.Now()
	sys, err := newSystem(dir)
	if err != nil {
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = sys.CloseDurability() // already failing; the listen error is the one to report
		return nil, 0, err
	}
	in := &instance{
		dir:    dir,
		sys:    sys,
		srv:    server.New(sys, server.Options{}),
		base:   "http://" + ln.Addr().String(),
		served: make(chan error, 1),
	}
	in.client = newClient(in.base, conns)
	go func() { in.served <- in.srv.Serve(ln) }()
	if err := in.client.healthz(); err != nil {
		_ = in.stop() // already failing; the health error is the one to report
		return nil, 0, err
	}
	return in, time.Since(start), nil
}

// stop shuts the server down, waits for Serve to return and detaches the
// commit log.
func (in *instance) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := in.srv.Shutdown(ctx)
	if serr := <-in.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	in.client.close()
	if cerr := in.sys.CloseDurability(); err == nil {
		err = cerr
	}
	return err
}

// client issues the benchmark's requests over keep-alive connections.
type client struct {
	hc   *http.Client
	tr   *http.Transport
	base string
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{
		MaxIdleConns:        2 * conns,
		MaxIdleConnsPerHost: 2 * conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &client{hc: &http.Client{Transport: tr}, tr: tr, base: base}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

func (c *client) healthz() error {
	resp, err := c.hc.Get(c.base + "/healthz")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: status %d", resp.StatusCode)
	}
	return nil
}

// do sends one op and returns the full response body; a non-200 answer
// is an error.
func (c *client) do(o *op) ([]byte, error) {
	url := c.base
	switch o.kind {
	case opCite:
		url += "/cite"
		if o.version > 0 {
			url += "?version=" + strconv.Itoa(o.version)
		}
	case opIngest:
		url += "/ingest"
	case opCommit:
		url += "/commit"
	}
	resp, err := c.hc.Post(url, "application/json", bytes.NewReader(o.body))
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %s", o.kind, resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

// Wire forms of the /cite reply the benchmark reads.
type wirePin struct {
	Query   string `json:"query"`
	Version int    `json:"version"`
	SHA256  string `json:"sha256"`
	Tuples  int    `json:"tuples"`
}

type wireResult struct {
	Query  string          `json:"query"`
	Record json.RawMessage `json:"record"`
	Text   string          `json:"text"`
	Pin    *wirePin        `json:"pin"`
	Cache  string          `json:"cache"`
	Reads  []string        `json:"reads"`
	Error  string          `json:"error"`
}

type wireCite struct {
	Epoch   int64       `json:"epoch"`
	Version int         `json:"version"`
	Result  *wireResult `json:"result"`
}

func decodeCite(body []byte) (*wireCite, error) {
	var wc wireCite
	if err := json.Unmarshal(body, &wc); err != nil {
		return nil, fmt.Errorf("decode cite reply: %w", err)
	}
	if wc.Result == nil {
		return nil, fmt.Errorf("cite reply without a result")
	}
	return &wc, nil
}

// phaseResult is the outcome of replaying a list of ops.
type phaseResult struct {
	lat       [3][]float64 // per opKind: latencies (ms) of successful ops
	attempted int
	failed    int
	errs      []string // first few failures, for the report
}

func (r *phaseResult) merge(o *phaseResult) {
	for k := range r.lat {
		r.lat[k] = append(r.lat[k], o.lat[k]...)
	}
	r.attempted += o.attempted
	r.failed += o.failed
	if len(r.errs) < 5 {
		r.errs = append(r.errs, o.errs...)
	}
}

// replay runs ops in order as one closed-loop client: each request is
// sent when the previous reply has been read. Every reply is checked by
// tr. A non-nil t records each op's spans under the op id (firstID + its
// index) and mirrors the op on its twin.
func replay(c *client, ops []op, tr *tracker, t *tracer, stream, firstID int) *phaseResult {
	res := &phaseResult{}
	for i := range ops {
		o := &ops[i]
		res.attempted++
		t0 := time.Now()
		body, err := c.do(o)
		t1 := time.Now()
		var wc *wireCite
		if err == nil && o.kind == opCite {
			wc, err = decodeCite(body)
		}
		t2 := time.Now()
		if err == nil && t != nil {
			err = t.after(stream, firstID+i, o, wc, t0, t1, t2)
		}
		if err != nil {
			res.failed++
			if len(res.errs) < 5 {
				res.errs = append(res.errs, err.Error())
			}
			continue
		}
		res.lat[o.kind] = append(res.lat[o.kind], float64(t1.Sub(t0).Nanoseconds())/1e6)
		if o.kind == opCite {
			tr.cite(o, wc.Result)
		} else {
			tr.write(o)
		}
	}
	return res
}

// replayTimed runs the plan's timed phase — its write stream, then its
// concurrent client streams — and returns the combined result and the
// wall time.
func replayTimed(c *client, p *plan, tr *tracker, t *tracer) (*phaseResult, time.Duration) {
	start := time.Now()
	total := replay(c, p.writes, tr, t, 0, len(p.warm))
	results := make([]*phaseResult, len(p.streams))
	var wg sync.WaitGroup
	id := len(p.warm) + len(p.writes)
	for i := range p.streams {
		wg.Add(1)
		go func(i, first int) {
			defer wg.Done()
			results[i] = replay(c, p.streams[i], tr, t, i, first)
		}(i, id)
		id += len(p.streams[i])
	}
	wg.Wait()
	for _, r := range results {
		total.merge(r)
	}
	return total, time.Since(start)
}

// workDir is the run's scratch area inside the checkout.
func workDir() (string, error) {
	dir := fmt.Sprintf(".bench_build/citeperf/run-%d", os.Getpid())
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}
