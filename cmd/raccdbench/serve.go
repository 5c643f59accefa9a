package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"raccd/client"
	"raccd/internal/resultstore" //raccd:layering-ok each worker daemon opens its own on-disk store, as raccdd does
	"raccd/internal/runner"      //raccd:layering-ok cold rows are re-simulated in-process on the deterministic pool
	"raccd/internal/service"
	"raccd/internal/sim" //raccd:layering-ok the store wrapper forwards sim.Result values
)

// serveWorkers is the worker-daemon count behind the coordinator.
const serveWorkers = 2

// daemon is one in-process raccdd: a service.Server on a loopback port.
type daemon struct {
	srv   *service.Server
	hs    *http.Server
	url   string
	done  chan struct{}
	calls *handlerStats // nil when untraced
}

// fabric is a coordinator over serveWorkers worker daemons, each with its
// own store, all in this process.
type fabric struct {
	dir     string
	coord   *daemon
	workers []*daemon
	stores  []*tracedStore // nil entries when untraced
	tr      *tracer
	clients clientStats
}

func startDaemon(opts service.Options, wrap func(http.Handler) http.Handler) (*daemon, error) {
	srv, err := service.New(opts)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(context.Background())
		return nil, err
	}
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	d := &daemon{srv: srv, hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(d.done)
		_ = d.hs.Serve(ln) // returns http.ErrServerClosed on Shutdown
	}()
	return d, nil
}

func (d *daemon) stop(ctx context.Context) error {
	err := d.srv.Shutdown(ctx)
	if herr := d.hs.Shutdown(ctx); err == nil {
		err = herr
	}
	<-d.done
	return err
}

// startFabric brings up the workers and the coordinator under dir,
// checks every daemon's health and stores the warm set through the
// coordinator. With a tracer, handlers and stores are wrapped in spans.
func startFabric(ctx context.Context, dir string, tr *tracer, ref reference) (_ *fabric, err error) {
	f := &fabric{dir: dir, tr: tr}
	defer func() {
		if err != nil {
			f.stop(ctx)
		}
	}()
	// start opens a store in dir/name and serves a daemon over it.
	start := func(name, span string, opts service.Options) (*daemon, *tracedStore, error) {
		st, err := resultstore.Open(filepath.Join(dir, name))
		if err != nil {
			return nil, nil, err
		}
		opts.Store = st
		var ts *tracedStore
		var wrap func(http.Handler) http.Handler
		var calls *handlerStats
		if tr != nil {
			ts = &tracedStore{Store: st, tr: tr}
			opts.Store = ts
			calls = &handlerStats{}
			wrap = traceHandler(tr, span, calls)
		}
		d, err := startDaemon(opts, wrap)
		if err != nil {
			return nil, nil, err
		}
		d.calls = calls
		return d, ts, nil
	}
	var urls []string
	for i := 0; i < serveWorkers; i++ {
		d, ts, err := start(fmt.Sprintf("worker%d", i), "service.worker_handler", service.Options{SimJobs: 1})
		if err != nil {
			return nil, err
		}
		f.workers = append(f.workers, d)
		f.stores = append(f.stores, ts)
		urls = append(urls, d.url)
	}
	if f.coord, _, err = start("coordinator", "service.coord_handler", service.Options{Workers: urls}); err != nil {
		return nil, err
	}
	for _, d := range append([]*daemon{f.coord}, f.workers...) {
		if err := client.New(d.url).Health(ctx); err != nil {
			return nil, fmt.Errorf("health check %s: %w", d.url, err)
		}
	}
	csv, err := runBatch(ctx, client.New(f.coord.url), warmSet())
	if err != nil {
		return nil, fmt.Errorf("storing the warm set: %w", err)
	}
	if rows, errs := ref.checkCSV(csv); len(errs) > 0 || rows != len(warmSet()) {
		return nil, fmt.Errorf("warm set: %d rows, %d wrong: %v", rows, len(errs), errors.Join(errs...))
	}
	return f, nil
}

// stop drains every daemon and removes the stores.
func (f *fabric) stop(ctx context.Context) {
	if f.coord != nil {
		_ = f.coord.stop(ctx)
	}
	for _, d := range f.workers {
		_ = d.stop(ctx)
	}
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	_ = os.RemoveAll(f.dir)
}

// runBatch is one closed-loop operation: submit, follow the SSE stream
// to the end, fetch the CSV.
func runBatch(ctx context.Context, c *client.Client, runs []client.RunRequest) (string, error) {
	st, err := c.SubmitBatch(ctx, client.BatchRequest{Runs: runs})
	if err != nil {
		return "", err
	}
	fin, err := c.Wait(ctx, st.ID, nil)
	if err != nil {
		return "", err
	}
	if fin.State != "done" {
		return "", fmt.Errorf("batch %s %s: %s", st.ID, fin.State, fin.Error)
	}
	return c.Result(ctx, st.ID)
}

// batchOp is one served batch as a client saw it.
type batchOp struct {
	runs    []client.RunRequest
	cold    bool
	latency time.Duration
	csv     string
	err     error
}

// serveLoad runs serveClients closed-loop clients against the fabric
// until the deadline, or until each has sent perClient batches when
// perClient > 0.
func serveLoad(ctx context.Context, f *fabric, seed int64, pass int, deadline time.Time, perClient int) []batchOp {
	var mu sync.Mutex
	var ops []batchOp
	var wg sync.WaitGroup
	for ci := 0; ci < serveClients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			plan := newBatchPlan(seed, pass, ci)
			var rt http.RoundTripper = http.DefaultTransport
			if f.tr != nil {
				rt = &tracedTransport{base: rt, tr: f.tr, stats: &f.clients}
			}
			c := client.New(f.coord.url, client.WithHTTPClient(&http.Client{Transport: rt}))
			for n := 0; ctx.Err() == nil; n++ {
				if perClient > 0 && n >= perClient || perClient == 0 && time.Now().After(deadline) {
					return
				}
				runs, cold := plan.next()
				bctx := ctx
				var root int64
				if f.tr != nil {
					id := fmt.Sprintf("serve/pass%d/client%d/batch%d", pass, ci, n)
					root = f.tr.start("client.batch", id, 0)
					bctx = context.WithValue(client.WithTraceID(ctx, id), spanKey{}, spanRef{id, root})
				}
				t0 := time.Now()
				csv, err := runBatch(bctx, c, runs)
				op := batchOp{runs: runs, cold: cold, latency: time.Since(t0), csv: csv, err: err}
				f.tr.end(root)
				mu.Lock()
				ops = append(ops, op)
				mu.Unlock()
			}
		}(ci)
	}
	wg.Wait()
	return ops
}

// verifyServed checks every served row: warm rows against the recorded
// reference, and every row against an in-process sim.Run of its spec.
// It returns per-op errors (nil for a correct batch) and the accesses
// the fabric simulated for each op: a cold batch's rows, while a warm
// batch is served from the stores and simulates nothing.
func verifyServed(ctx context.Context, ops []batchOp, ref reference, jobs int) ([]error, []uint64, error) {
	// Distinct requests, simulated once each.
	index := map[string]int{}
	var reqs []client.RunRequest
	for _, op := range ops {
		for _, r := range op.runs {
			k := r.Workload + "|" + r.System
			if _, ok := index[k]; !ok {
				index[k] = len(reqs)
				reqs = append(reqs, r)
			}
		}
	}
	rows := make([]string, len(reqs))
	acc := make([]uint64, len(reqs))
	err := runner.Run(ctx, jobs, len(reqs),
		func(_ context.Context, i int) (sim.Result, error) {
			s, err := serveSpec(reqs[i])
			if err != nil {
				return sim.Result{}, err
			}
			return simulate(s)
		},
		func(i int, res sim.Result) {
			rows[i] = rowOf(res)
			acc[i] = res.HStats.Accesses
		})
	if err != nil {
		return nil, nil, err
	}
	errs := make([]error, len(ops))
	accesses := make([]uint64, len(ops))
	for oi, op := range ops {
		if op.err != nil {
			errs[oi] = op.err
			continue
		}
		got := map[string]string{}
		lines := strings.Split(strings.TrimSpace(op.csv), "\n")
		if len(lines) == 0 || lines[0] != csvHeader {
			errs[oi] = fmt.Errorf("batch CSV without the report header")
			continue
		}
		for _, row := range lines[1:] {
			got[rowKey(row)] = row
		}
		if len(got) != len(op.runs) {
			errs[oi] = fmt.Errorf("batch CSV has %d rows, want %d", len(got), len(op.runs))
			continue
		}
		for _, r := range op.runs {
			i := index[r.Workload+"|"+r.System]
			want := rows[i]
			if g := got[rowKey(want)]; g != want {
				errs[oi] = fmt.Errorf("served row differs from in-process sim.Run:\n got  %s\n want %s", g, want)
				break
			}
			if !op.cold {
				if err := ref.check(want); err != nil {
					errs[oi] = err
					break
				}
			}
			if op.cold {
				accesses[oi] += acc[i]
			}
		}
	}
	return errs, accesses, nil
}

// --- tracing wrappers ------------------------------------------------------

type spanKey struct{}

// spanRef is the batch span a client request belongs to.
type spanRef struct {
	trace string
	id    int64
}

// clientStats counts a client's requests and refusals.
type clientStats struct {
	requests atomic.Int64
	refused  atomic.Int64
}

// tracedTransport is the client-side span recorder, installed through
// client.WithHTTPClient: one span per HTTP request, from sending it to
// closing its body (so a followed SSE stream is timed to its end).
type tracedTransport struct {
	base  http.RoundTripper
	tr    *tracer
	stats *clientStats
}

func clientOp(r *http.Request) string {
	p := r.URL.Path
	switch {
	case r.Method == http.MethodPost:
		return "client.submit"
	case strings.HasSuffix(p, "/events"):
		return "client.wait"
	case strings.HasSuffix(p, "/result"):
		return "client.result"
	default:
		return "client.status"
	}
}

func (t *tracedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	ref, _ := r.Context().Value(spanKey{}).(spanRef)
	id := t.tr.start(clientOp(r), ref.trace, ref.id)
	t.stats.requests.Add(1)
	resp, err := t.base.RoundTrip(r)
	if err != nil {
		t.tr.end(id)
		return nil, err
	}
	if resp.StatusCode == http.StatusServiceUnavailable {
		t.stats.refused.Add(1)
	}
	resp.Body = &endOnClose{ReadCloser: resp.Body, end: func() { t.tr.end(id) }}
	return resp, nil
}

type endOnClose struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (e *endOnClose) Close() error {
	err := e.ReadCloser.Close()
	e.once.Do(e.end)
	return err
}

// handlerStats counts a daemon's requests and run submissions.
type handlerStats struct {
	requests atomic.Int64
	runs     atomic.Int64
}

// traceHandler wraps a daemon's Server.Handler: one span per request,
// stamped with the caller's trace ID.
func traceHandler(tr *tracer, name string, st *handlerStats) func(http.Handler) http.Handler {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			st.requests.Add(1)
			if r.Method == http.MethodPost && r.URL.Path == "/v1/runs" {
				st.runs.Add(1)
			}
			id := tr.start(name, r.Header.Get(client.TraceHeader), 0)
			defer tr.end(id)
			next.ServeHTTP(w, r)
		})
	}
}

// tracedStore wraps a worker's store.Store: a span around each
// GetOrCompute with a child span around its compute callback.
type tracedStore struct {
	*resultstore.Store
	tr *tracer

	mu       sync.Mutex
	calls    int
	computed int
	selfMs   []float64
}

func (s *tracedStore) GetOrCompute(key resultstore.Key, compute func() (sim.Result, error)) (sim.Result, bool, error) {
	id := s.tr.start("resultstore.get_or_compute", key.Hash(), 0)
	t0 := time.Now()
	var computeDur time.Duration
	res, cached, err := s.Store.GetOrCompute(key, func() (sim.Result, error) {
		c0 := time.Now()
		cid := s.tr.start("resultstore.compute", key.Hash(), id)
		defer func() {
			s.tr.end(cid)
			computeDur = time.Since(c0)
		}()
		return compute()
	})
	total := time.Since(t0)
	s.tr.end(id)
	s.mu.Lock()
	s.calls++
	if computeDur > 0 {
		s.computed++
	}
	s.selfMs = append(s.selfMs, (total-computeDur).Seconds()*1e3)
	s.mu.Unlock()
	return res, cached, err
}

// resetCounters zeroes the wrappers' counters, so a load phase after
// set-up counts only its own traffic.
func (f *fabric) resetCounters() {
	for _, s := range f.stores {
		if s != nil {
			s.mu.Lock()
			s.calls, s.computed, s.selfMs = 0, 0, nil
			s.mu.Unlock()
		}
	}
	for _, d := range append([]*daemon{f.coord}, f.workers...) {
		if d.calls != nil {
			d.calls.requests.Store(0)
			d.calls.runs.Store(0)
		}
	}
}
