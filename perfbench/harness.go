package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"dbsherlock"
	"dbsherlock/internal/ingest"
	"dbsherlock/internal/obs"
	"dbsherlock/internal/server"
	"dbsherlock/internal/store"
)

// daemon is the DBSherlock server running in-process behind a loopback
// listener, assembled exactly as cmd/dbsherlockd assembles it with its
// default flags: theta 0.05, workers = GOMAXPROCS, info-level text
// request log, 64 MiB diagnosis cache, no admission limit, default
// ingest config (64 shards, 600-row window, a tick every 30 rows).
type daemon struct {
	srv     *server.Server
	hs      *http.Server
	url     string
	st      store.Store
	served  chan error
	closing sync.Once
}

// daemonOptions are the deployment choices a workload makes.
type daemonOptions struct {
	// dataDir, when set, opens a durable store there (the -data-dir
	// deployment, fdatasync on); otherwise the store is in memory.
	dataDir string
	tracer  *tracer
}

func startDaemon(opts daemonOptions) (*daemon, error) {
	analyzer, err := dbsherlock.New(dbsherlock.WithTheta(0.05), dbsherlock.WithWorkers(0))
	if err != nil {
		return nil, err
	}
	// The daemon logs one line per request to stderr; the benchmark pays
	// the same formatting cost but discards the text.
	logger, err := obs.NewLogger(io.Discard, slog.LevelInfo, "text")
	if err != nil {
		return nil, err
	}
	registry := obs.NewRegistry()
	obs.RegisterRuntimeMetrics(registry)
	var st store.Store
	if opts.dataDir != "" {
		storeMetrics := obs.NewStoreMetrics(registry, "durable", obs.DefaultTenantLabelCap)
		sp := opts.tracer.begin("store.open", 0)
		durable, err := store.OpenDurable(opts.dataDir, store.WithObserver(storeMetrics))
		opts.tracer.end(sp)
		if err != nil {
			return nil, fmt.Errorf("open data dir: %w", err)
		}
		st = durable
		if opts.tracer != nil {
			st = &timedStore{Durable: durable, tr: opts.tracer}
		}
	} else {
		st = store.NewMemory()
	}
	srv, err := server.New(analyzer,
		server.WithLogger(logger),
		server.WithMetrics(registry),
		server.WithMaxUploadBytes(server.DefaultMaxUploadBytes),
		server.WithStore(st),
		server.WithDefaultTenant(store.DefaultTenant),
		server.WithSlowRequestThreshold(server.DefaultSlowRequestThreshold),
		server.WithDiagnosisCache(server.DefaultDiagCacheEntries, 64<<20),
		server.WithJobTTL(server.DefaultJobTTL),
		server.WithIngest(ingest.Config{}),
	)
	if err != nil {
		st.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		st.Close()
		return nil, err
	}
	var h http.Handler = srv
	if opts.tracer != nil {
		h = opts.tracer.wrapHandler(srv)
	}
	d := &daemon{
		srv: srv,
		hs: &http.Server{
			Handler:           h,
			ReadHeaderTimeout: 10 * time.Second,
			ReadTimeout:       2 * time.Minute,
			WriteTimeout:      2 * time.Minute,
			IdleTimeout:       2 * time.Minute,
		},
		url:    "http://" + ln.Addr().String(),
		st:     st,
		served: make(chan error, 1),
	}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// close shuts the daemon down the way dbsherlockd does on SIGTERM:
// drain, stop the ingest plane, then flush and close the store.
func (d *daemon) close() error {
	var err error
	d.closing.Do(func() {
		d.srv.SetDraining(true)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if e := d.hs.Shutdown(ctx); e != nil {
			_ = d.hs.Close()
		}
		<-d.served
		d.srv.Close()
		err = d.st.Close()
	})
	return err
}

// client drives the daemon over loopback HTTP on at most conns
// connections.
type client struct {
	base string
	hc   *http.Client
	tr   *tracer
}

// requestTimeout bounds one request; a request that exceeds it counts
// as failed.
const requestTimeout = 30 * time.Second

func newClient(base string, conns int, tr *tracer) *client {
	return &client{
		base: base,
		tr:   tr,
		hc: &http.Client{
			Timeout: requestTimeout,
			Transport: &http.Transport{
				MaxConnsPerHost:     conns,
				MaxIdleConnsPerHost: conns,
				DisableCompression:  true,
			},
		},
	}
}

func (c *client) closeIdle() { c.hc.CloseIdleConnections() }

// response is one completed request.
type response struct {
	status int
	body   []byte
	rtt    time.Duration
}

// do sends one request whose body is the concatenation of parts. op
// names the request kind in spans. A transport error or timeout is
// returned as err.
func (c *client) do(op, method, path, ctype string, parts ...[]byte) (response, error) {
	readers := make([]io.Reader, len(parts))
	n := 0
	for i, p := range parts {
		readers[i] = bytes.NewReader(p)
		n += len(p)
	}
	var body io.Reader
	if len(parts) > 0 {
		body = io.MultiReader(readers...)
	}
	req, err := http.NewRequest(method, c.base+path, body)
	if err != nil {
		return response{}, err
	}
	req.ContentLength = int64(n)
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	sp := c.tr.begin("client."+op, 0)
	if c.tr != nil {
		req.Header.Set(spanHeader, op+":"+strconv.FormatInt(sp.id, 10))
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		c.tr.end(sp)
		return response{}, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rtt := time.Since(start)
	c.tr.end(sp)
	if err != nil {
		return response{}, err
	}
	return response{status: resp.StatusCode, body: data, rtt: rtt}, nil
}

func (c *client) postJSON(op, path string, v any) (response, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return response{}, err
	}
	return c.do(op, http.MethodPost, path, "application/json", b)
}

// expect turns a non-2xx response into an error (set-up calls).
func expect(r response, err error) (response, error) {
	if err != nil {
		return r, err
	}
	if r.status/100 != 2 {
		return r, fmt.Errorf("status %d: %s", r.status, bytes.TrimSpace(r.body))
	}
	return r, nil
}

// opCounter accounts the operations of a timed phase. A 429 shed, a
// transport error or a timeout counts as failed; any other non-2xx
// status also fails the run's correctness.
type opCounter struct {
	mu         sync.Mutex
	attempted  int64
	failed     int64
	unexpected []string // non-2xx statuses other than 429
	transport  []string // first few transport errors, for the report
}

// record classifies one timed request; ok reports whether the response
// can be used.
func (c *opCounter) record(op string, r response, err error) (ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	switch {
	case err != nil:
		c.failed++
		if len(c.transport) < 5 {
			c.transport = append(c.transport, fmt.Sprintf("%s: %v", op, err))
		}
		return false
	case r.status == http.StatusTooManyRequests:
		c.failed++
		return false
	case r.status/100 != 2:
		c.failed++
		c.unexpected = append(c.unexpected, fmt.Sprintf("%s: unexpected status %d: %s", op, r.status, bytes.TrimSpace(r.body)))
		return false
	}
	return true
}

// merge adds the counts and failed checks into an outcome.
func (c *opCounter) merge(o *outcome) {
	o.attempted += c.attempted
	o.failed += c.failed
	for _, u := range c.unexpected {
		o.fail("%s", u)
	}
	for _, t := range c.transport {
		o.reportf("note transport error (counted as failed) %s", t)
	}
}

// alertEvent is one alert delivered on the SSE feed, stamped on
// arrival.
type alertEvent struct {
	alert ingest.Alert
	at    time.Time
}

// alertFeed is an open GET /v1/alerts/stream subscription.
type alertFeed struct {
	C      chan alertEvent
	cancel context.CancelFunc
	done   chan struct{}
	err    error
}

// alertBuffer bounds alerts waiting for the push loop; one run raises
// far fewer, and a full buffer fails the run rather than blocking the
// reader.
const alertBuffer = 4096

// subscribeAlerts opens the SSE feed on its own connection and returns
// once the daemon has acknowledged the subscription.
func subscribeAlerts(base string) (*alertFeed, error) {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/alerts/stream", nil)
	if err != nil {
		cancel()
		return nil, err
	}
	hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, DisableCompression: true}}
	resp, err := hc.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("alert stream: status %d", resp.StatusCode)
	}
	br := bufio.NewReader(resp.Body)
	line, err := br.ReadString('\n')
	if err != nil || !strings.HasPrefix(line, ": stream open") {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("alert stream: no open acknowledgement (%q, %v)", line, err)
	}
	f := &alertFeed{C: make(chan alertEvent, alertBuffer), cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(f.done)
		defer resp.Body.Close()
		event := ""
		for {
			line, err := br.ReadString('\n')
			if err != nil {
				if ctx.Err() == nil {
					f.err = err
				}
				return
			}
			line = strings.TrimRight(line, "\r\n")
			switch {
			case strings.HasPrefix(line, "event: "):
				event = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: ") && event == "alert":
				var a ingest.Alert
				if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &a); err != nil {
					f.err = fmt.Errorf("alert stream: bad alert %q: %w", line, err)
					return
				}
				select {
				case f.C <- alertEvent{alert: a, at: time.Now()}:
				default:
					f.err = errors.New("alert stream: alert buffer full")
					return
				}
			case line == "":
				event = ""
			}
		}
	}()
	return f, nil
}

// close ends the subscription and waits for its reader to exit.
func (f *alertFeed) close() error {
	f.cancel()
	<-f.done
	return f.err
}

// scrape reads the daemon's /metrics and sums each sample name over its
// labels.
func scrape(c *client) (map[string]float64, error) {
	r, err := expect(c.do("metrics", http.MethodGet, "/metrics", ""))
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(r.body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		out[name] += v
	}
	return out, nil
}

// timedStore is the durable store with a span around every write, for
// the traced run. It is what the server is handed through
// server.WithStore.
type timedStore struct {
	*store.Durable
	tr *tracer
}

func (s *timedStore) PutDataset(tenant string, ds *dbsherlock.Dataset) (string, error) {
	sp := s.tr.begin("store.put_dataset", 0)
	defer s.tr.end(sp)
	return s.Durable.PutDataset(tenant, ds)
}

func (s *timedStore) PutModel(tenant string, m *dbsherlock.CausalModel) error {
	before := s.Durable.Health().WALBytes
	sp := s.tr.begin("store.put_model", 0)
	err := s.Durable.PutModel(tenant, m)
	s.tr.end(sp)
	// A commit that triggered compaction shrinks the WAL; its record
	// size is unknown and the sample is skipped.
	if after := s.Durable.Health().WALBytes; err == nil && after >= before {
		s.tr.record("store.wal_bytes_per_learn", float64(after-before))
	}
	return err
}
