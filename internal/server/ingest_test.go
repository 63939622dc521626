package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dbsherlock"
	"dbsherlock/internal/ingest"
)

// ingestCSV is a tiny WriteCSV-format trace for ingest endpoint tests.
func ingestCSV(start, rows int) string {
	var b strings.Builder
	b.WriteString("timestamp,cpu,io\n")
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&b, "%d,%d,%d\n", start+i, 10+i%3, 5+i%2)
	}
	return b.String()
}

func TestIngestEndpoint(t *testing.T) {
	ts, srv := newTestServer(t)
	defer srv.Close()

	// CSV push.
	resp, err := http.Post(ts.URL+"/v1/ingest/db-1", "text/csv",
		strings.NewReader(ingestCSV(1000, 50)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("csv ingest status = %d", resp.StatusCode)
	}
	var ack ingestResponse
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	if ack.Rows != 50 || ack.Instance != "db-1" {
		t.Fatalf("ack = %+v", ack)
	}

	// NDJSON push to a second instance.
	var nd strings.Builder
	for i := 0; i < 20; i++ {
		fmt.Fprintf(&nd, "{\"ts\":%d,\"cpu\":%d,\"io\":%d}\n", 1000+i, 10+i%3, 5)
	}
	resp2, err := http.Post(ts.URL+"/v1/ingest/db-2", "application/x-ndjson",
		strings.NewReader(nd.String()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("ndjson ingest status = %d", resp2.StatusCode)
	}

	// The fleet listing reflects both.
	lresp, err := http.Get(ts.URL + "/v1/instances")
	if err != nil {
		t.Fatal(err)
	}
	defer lresp.Body.Close()
	var list instancesResponse
	if err := json.NewDecoder(lresp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if list.Count != 2 || len(list.Instances) != 2 {
		t.Fatalf("instances = %+v", list)
	}
	if list.Instances[0].Instance != "db-1" || list.Instances[0].Rows != 50 {
		t.Fatalf("db-1 status = %+v", list.Instances[0])
	}

	// Tenancy scopes the listing: another tenant sees an empty fleet.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/instances", nil)
	req.Header.Set(TenantHeader, "other")
	oresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer oresp.Body.Close()
	var olist instancesResponse
	if err := json.NewDecoder(oresp.Body).Decode(&olist); err != nil {
		t.Fatal(err)
	}
	if olist.Count != 0 {
		t.Fatalf("other tenant sees %d instances", olist.Count)
	}
}

func TestIngestEndpointErrors(t *testing.T) {
	ts, srv := newTestServer(t)
	defer srv.Close()

	for _, tc := range []struct {
		name        string
		path        string
		contentType string
		body        string
		wantStatus  int
		wantCode    ErrorCode
	}{
		{"bad instance name", "/v1/ingest/a%2Fb", "text/csv", ingestCSV(0, 1),
			http.StatusBadRequest, CodeInvalidRequest},
		{"unsupported media type", "/v1/ingest/db", "image/png", "x",
			http.StatusUnsupportedMediaType, CodeInvalidRequest},
		{"malformed csv", "/v1/ingest/db", "text/csv", "nope\n1,2\n",
			http.StatusBadRequest, CodeInvalidRequest},
		{"malformed ndjson", "/v1/ingest/db", "application/x-ndjson", "{\"cpu\":1}\n",
			http.StatusBadRequest, CodeInvalidRequest},
		{"fractional ndjson timestamp", "/v1/ingest/db", "application/x-ndjson", "{\"ts\":1.5,\"cpu\":1}\n",
			http.StatusBadRequest, CodeInvalidRequest},
	} {
		resp, err := http.Post(ts.URL+tc.path, tc.contentType, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var e errorResponse
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("%s: decode: %v", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.wantStatus || e.Error.Code != tc.wantCode {
			t.Errorf("%s: status=%d code=%q, want %d/%q",
				tc.name, resp.StatusCode, e.Error.Code, tc.wantStatus, tc.wantCode)
		}
	}

	// A decode error mid-stream still lands earlier chunks.
	body := ingestCSV(1000, 300) + "broken,row\n"
	resp, err := http.Post(ts.URL+"/v1/ingest/partial", "text/csv", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	lresp, err := http.Get(ts.URL + "/v1/instances")
	if err != nil {
		t.Fatal(err)
	}
	defer lresp.Body.Close()
	var list instancesResponse
	if err := json.NewDecoder(lresp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Instances) != 1 || list.Instances[0].Rows != 256 {
		t.Fatalf("partial push kept %+v, want the first 256-row chunk", list.Instances)
	}
}

// TestRetryAfterOnEverySheddingRoute pins the Retry-After header on
// every route that sheds with 429: the statically gated compute
// endpoints, the dynamic-weight batch endpoint, and the ingest
// endpoint's backpressure path.
func TestRetryAfterOnEverySheddingRoute(t *testing.T) {
	srv := MustNew(dbsherlock.MustNew(),
		WithMaxInflight(1),
		WithIngest(ingest.Config{MaxInstances: 1}))
	defer srv.Close()
	block := &blockingHandler{release: make(chan struct{})}
	srv.mux.Handle("POST /test/block", srv.gate("POST /test/block", 1, block.handle))
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Saturate the gate: one admitted (held), one queued.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/test/block", "application/json", strings.NewReader("{}"))
			if err == nil {
				resp.Body.Close()
			}
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		inUse, queued := srv.sem.stats()
		if block.entered.Load() == 1 && inUse == 1 && queued == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("gate never saturated")
		}
		time.Sleep(time.Millisecond)
	}
	defer func() { close(block.release); wg.Wait() }()

	// Occupy the single ingest instance slot so a second instance sheds.
	if resp, err := http.Post(ts.URL+"/v1/ingest/only", "text/csv",
		strings.NewReader(ingestCSV(0, 2))); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("priming ingest status = %d", resp.StatusCode)
		}
	}

	shedding := []struct {
		name, method, path, contentType, body string
	}{
		{"detect", http.MethodPost, "/v1/detect", "application/json", `{"dataset":"x"}`},
		{"explain", http.MethodPost, "/v1/explain", "application/json", `{"dataset":"x"}`},
		{"learn", http.MethodPost, "/v1/learn", "application/json", `{"dataset":"x"}`},
		{"explain/batch", http.MethodPost, "/v1/explain/batch", "application/json", `{"items":[{"dataset":"x"}]}`},
		{"ingest shed", http.MethodPost, "/v1/ingest/overflow", "text/csv", ingestCSV(0, 2)},
	}
	for _, tc := range shedding {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", tc.contentType)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var e errorResponse
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("%s: decode 429 body: %v", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Errorf("%s: status = %d, want 429", tc.name, resp.StatusCode)
			continue
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Errorf("%s: 429 without Retry-After", tc.name)
		}
		if e.Error.Code != CodeOverloaded {
			t.Errorf("%s: code = %q, want %q", tc.name, e.Error.Code, CodeOverloaded)
		}
	}
}

func TestAlertStreamSSE(t *testing.T) {
	ts, srv := newTestServer(t)
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/alerts/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sse status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}

	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() || !strings.HasPrefix(sc.Text(), ":") {
		t.Fatalf("first frame %q, want the open comment", sc.Text())
	}

	// Publish directly through the registry: the SSE path under test is
	// the fan-out, not detection (covered in internal/ingest).
	want := ingest.Alert{
		Tenant: srv.tenant, Instance: "db-9",
		FromTime: 1400, ToTime: 1460,
		SelectedAttrs: []string{"os_cpu_usage"}, WindowRows: 300, At: 1234,
	}
	// Subscription registration races with the publish only if the
	// handler has not subscribed yet; the open comment above proves it
	// has.
	srv.IngestRegistry().Publish(want)

	var event, data string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		}
		if event != "" && data != "" {
			break
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if event != "alert" {
		t.Fatalf("event = %q, want alert", event)
	}
	var got ingest.Alert
	if err := json.Unmarshal([]byte(data), &got); err != nil {
		t.Fatal(err)
	}
	if got.Instance != want.Instance || got.FromTime != want.FromTime ||
		got.ToTime != want.ToTime || len(got.SelectedAttrs) != 1 {
		t.Fatalf("alert = %+v, want %+v", got, want)
	}
}

func TestStatusEndpointInventory(t *testing.T) {
	ts, srv := newTestServer(t)
	defer srv.Close()

	resp, err := http.Get(ts.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Endpoints []endpointInfo `json:"endpoints"`
		Ingest    ingest.Stats   `json:"ingest"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if len(st.Endpoints) != len(routeTable) {
		t.Fatalf("inventory has %d endpoints, table has %d", len(st.Endpoints), len(routeTable))
	}
	seen := make(map[string]endpointInfo, len(st.Endpoints))
	for _, e := range st.Endpoints {
		seen[e.Method+" "+e.Path] = e
	}
	for _, want := range []string{
		"POST /v1/ingest/{instance}", "GET /v1/instances", "GET /v1/alerts/stream",
		"POST /v1/explain", "GET /metrics",
	} {
		if _, ok := seen[want]; !ok {
			t.Errorf("inventory missing %s", want)
		}
	}
	// Admission is off in this server, so nothing reports gated.
	if seen["POST /v1/explain"].Gated {
		t.Error("explain reports gated without admission control")
	}
	if !seen["POST /v1/ingest/{instance}"].TenantScoped {
		t.Error("ingest route not marked tenant-scoped")
	}
}

// TestIngestErrorMapping pins how a failed push is answered: a
// recovered detection panic is a server fault (500 internal), not a
// schema error, while decode failures stay 400 and back-pressure 429.
func TestIngestErrorMapping(t *testing.T) {
	_, srv := newTestServer(t)
	cases := []struct {
		name   string
		err    error
		status int
		code   ErrorCode
	}{
		{"detection panic", fmt.Errorf("%w: index out of range", ingest.ErrDetectionPanic), http.StatusInternalServerError, CodeInternal},
		{"shed", ingest.ErrShed, http.StatusTooManyRequests, CodeOverloaded},
		{"instance cap", ingest.ErrTooManyInstances, http.StatusTooManyRequests, CodeOverloaded},
		{"body too large", fmt.Errorf("collector: %w", &http.MaxBytesError{Limit: 1}), http.StatusRequestEntityTooLarge, CodePayloadTooLarge},
		{"decode", errors.New("collector: line 3: bad value"), http.StatusBadRequest, CodeInvalidRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			srv.writeIngestError(rec, httptest.NewRequest(http.MethodPost, "/v1/ingest/db", nil), tc.err, 30)
			var e errorResponse
			if err := json.NewDecoder(rec.Body).Decode(&e); err != nil {
				t.Fatal(err)
			}
			if rec.Code != tc.status || e.Error.Code != tc.code {
				t.Fatalf("answered %d %q, want %d %q", rec.Code, e.Error.Code, tc.status, tc.code)
			}
		})
	}
}
