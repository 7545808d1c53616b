package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	eof "github.com/eof-fuzz/eof"
	"github.com/eof-fuzz/eof/internal/trace"
)

// newTestServer starts a daemon over a temp data directory and fronts it
// with an httptest server, returning a client bound to the given tenant.
func newTestServer(t *testing.T, boards int, quantum time.Duration) (*Server, *httptest.Server, func(tenant string) *Client) {
	t.Helper()
	s, err := New(Options{
		DataDir: t.TempDir(),
		Boards:  boards,
		Quantum: quantum,
		Logf:    t.Logf,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Stop()
	})
	return s, ts, func(tenant string) *Client {
		return &Client{Base: ts.URL, Tenant: tenant}
	}
}

// spec marshals a campaign spec the way clients do.
func spec(t *testing.T, o eof.Options) json.RawMessage {
	t.Helper()
	raw, err := json.Marshal(o)
	if err != nil {
		t.Fatalf("marshal spec: %v", err)
	}
	return raw
}

// waitState polls until the job reaches one of the wanted states.
func waitState(t *testing.T, cl *Client, id string, want ...string) *JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		js, err := cl.Job(id)
		if err != nil {
			t.Fatalf("Job(%s): %v", id, err)
		}
		for _, w := range want {
			if js.State == w {
				return js
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %v", id, want)
	return nil
}

// TestAPILifecycle drives the happy path over the wire: submit, run to
// completion in multiple quantum slices, observe status and the list view.
func TestAPILifecycle(t *testing.T) {
	_, _, mkClient := newTestServer(t, 2, time.Minute)
	cl := mkClient("alice")

	js, err := cl.Submit(SubmitRequest{
		Minutes: 2,
		Options: spec(t, eof.Options{OS: "freertos", SyncEvery: 30 * time.Second}),
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if js.ID == "" || js.Tenant != "alice" || js.Priority != 1 || js.Boards != 1 {
		t.Fatalf("unexpected submit response: %+v", js)
	}

	fin, err := cl.Wait(js.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if fin.State != "done" {
		t.Fatalf("state = %s (error %q), want done", fin.State, fin.Error)
	}
	if fin.UsedS < 120 {
		t.Errorf("used %.0fs, want >= the 120s budget", fin.UsedS)
	}
	if fin.Slices < 2 {
		t.Errorf("slices = %d, want >= 2 (2min budget over 1min quantum)", fin.Slices)
	}
	if fin.Execs == 0 || fin.Edges == 0 {
		t.Errorf("no fuzzing progress recorded: %+v", fin)
	}
	if fin.Checkpoints == 0 {
		t.Errorf("no durable checkpoints recorded across slices")
	}

	all, err := cl.Jobs("")
	if err != nil {
		t.Fatalf("Jobs: %v", err)
	}
	if len(all) != 1 || all[0].ID != js.ID {
		t.Fatalf("list = %+v, want exactly the submitted job", all)
	}
	if byTenant, _ := cl.Jobs("nobody"); len(byTenant) != 0 {
		t.Fatalf("tenant filter leaked jobs: %+v", byTenant)
	}
}

// TestAPIPreemptResume checks the preempt half of the lifecycle: a running
// job is requeued at an epoch barrier, resumes from its checkpoint, and
// still runs its full budget to completion.
func TestAPIPreemptResume(t *testing.T) {
	_, _, mkClient := newTestServer(t, 1, time.Minute)
	cl := mkClient("alice")

	js, err := cl.Submit(SubmitRequest{
		Minutes: 10,
		Options: spec(t, eof.Options{OS: "freertos", SyncEvery: 15 * time.Second}),
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitState(t, cl, js.ID, "running")
	if err := cl.Preempt(js.ID); err != nil {
		t.Fatalf("Preempt: %v", err)
	}
	fin, err := cl.Wait(js.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if fin.State != "done" {
		t.Fatalf("state = %s (error %q), want done despite preemption", fin.State, fin.Error)
	}
	if fin.Preempts < 1 {
		t.Errorf("preempts = %d, want >= 1", fin.Preempts)
	}
	if fin.UsedS < 600 {
		t.Errorf("used %.0fs, want the full 600s budget after resume", fin.UsedS)
	}
	if fin.Slices < 2 {
		t.Errorf("slices = %d, want >= 2 (preemption forces a regrant)", fin.Slices)
	}
}

// TestAPIBadRequests pins the 4xx contract for malformed submissions.
func TestAPIBadRequests(t *testing.T) {
	_, ts, _ := newTestServer(t, 2, time.Minute)

	good := func(o eof.Options) string {
		raw, _ := json.Marshal(o)
		return fmt.Sprintf(`{"minutes": 5, "options": %s}`, raw)
	}
	cases := []struct {
		name   string
		tenant string
		body   string
		want   int
	}{
		{"missing tenant", "", good(eof.Options{OS: "freertos"}), http.StatusBadRequest},
		{"invalid tenant", "no spaces", good(eof.Options{OS: "freertos"}), http.StatusBadRequest},
		{"not json", "alice", "{", http.StatusBadRequest},
		{"unknown request field", "alice", `{"minutes": 5, "options": {"OS":"freertos"}, "frobnicate": 1}`, http.StatusBadRequest},
		{"missing options", "alice", `{"minutes": 5}`, http.StatusBadRequest},
		{"missing OS", "alice", `{"minutes": 5, "options": {}}`, http.StatusBadRequest},
		{"unknown OS", "alice", `{"minutes": 5, "options": {"OS":"templeos"}}`, http.StatusBadRequest},
		{"unknown board", "alice", `{"minutes": 5, "options": {"OS":"freertos","Board":"pdp11"}}`, http.StatusBadRequest},
		{"unknown options field", "alice", `{"minutes": 5, "options": {"OS":"freertos","Warp":9}}`, http.StatusBadRequest},
		{"zero minutes", "alice", `{"minutes": 0, "options": {"OS":"freertos"}}`, http.StatusBadRequest},
		{"negative priority", "alice", `{"minutes": 5, "priority": -1, "options": {"OS":"freertos"}}`, http.StatusBadRequest},
		{"corpus dir is daemon-managed", "alice", good(eof.Options{OS: "freertos", CorpusDir: "/tmp/x"}), http.StatusBadRequest},
		{"resume is daemon-managed", "alice", good(eof.Options{OS: "freertos", Resume: true}), http.StatusBadRequest},
		{"metrics addr is daemon-managed", "alice", good(eof.Options{OS: "freertos", MetricsAddr: ":0"}), http.StatusBadRequest},
		{"footprint exceeds pool", "alice", good(eof.Options{OS: "freertos", Shards: 3}), http.StatusBadRequest},
		{"footprint overflows", "alice", good(eof.Options{OS: "freertos", Shards: 1 << 62, Spares: 1 << 62}), http.StatusBadRequest},
		{"emulation tier too wide", "alice", good(eof.Options{OS: "freertos", Tiers: true, EmulShards: 1 << 20}), http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/campaigns", strings.NewReader(tc.body))
			req.Header.Set("Content-Type", "application/json")
			if tc.tenant != "" {
				req.Header.Set(TenantHeader, tc.tenant)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatalf("POST: %v", err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.want {
				var buf bytes.Buffer
				_, _ = buf.ReadFrom(resp.Body)
				t.Fatalf("status = %d, want %d (body %s)", resp.StatusCode, tc.want, buf.String())
			}
		})
	}

	// Unknown-ID routes are 404s, not 500s.
	for _, probe := range []struct{ method, path string }{
		{http.MethodGet, "/v1/campaigns/c-999999"},
		{http.MethodDelete, "/v1/campaigns/c-999999"},
		{http.MethodPost, "/v1/campaigns/c-999999/preempt"},
		{http.MethodGet, "/v1/campaigns/c-999999/events"},
	} {
		req, _ := http.NewRequest(probe.method, ts.URL+probe.path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", probe.method, probe.path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s = %d, want 404", probe.method, probe.path, resp.StatusCode)
		}
	}
}

// TestAPICancelIdempotent cancels a queued job and a running job, and
// repeats each DELETE to pin idempotency.
func TestAPICancelIdempotent(t *testing.T) {
	_, _, mkClient := newTestServer(t, 1, time.Minute)
	cl := mkClient("alice")

	run, err := cl.Submit(SubmitRequest{
		Minutes: 10,
		Options: spec(t, eof.Options{OS: "freertos", SyncEvery: 15 * time.Second}),
	})
	if err != nil {
		t.Fatalf("Submit running job: %v", err)
	}
	queued, err := cl.Submit(SubmitRequest{
		Minutes: 10,
		Options: spec(t, eof.Options{OS: "freertos"}),
	})
	if err != nil {
		t.Fatalf("Submit queued job: %v", err)
	}
	waitState(t, cl, run.ID, "running")

	// The queued job cancels immediately; a second DELETE is a no-op.
	if err := cl.Cancel(queued.ID); err != nil {
		t.Fatalf("Cancel queued: %v", err)
	}
	if js := waitState(t, cl, queued.ID, "canceled"); js.UsedS != 0 {
		t.Errorf("canceled queued job consumed %.0fs board time", js.UsedS)
	}
	if err := cl.Cancel(queued.ID); err != nil {
		t.Fatalf("second Cancel on canceled job: %v", err)
	}

	// The running job drains at its next epoch barrier.
	if err := cl.Cancel(run.ID); err != nil {
		t.Fatalf("Cancel running: %v", err)
	}
	fin := waitState(t, cl, run.ID, "canceled")
	if fin.UsedS >= fin.BudgetS {
		t.Errorf("canceled job ran its whole %.0fs budget", fin.BudgetS)
	}
	if err := cl.Cancel(run.ID); err != nil {
		t.Fatalf("second Cancel on canceled job: %v", err)
	}
}

// TestAPIEventsReplay checks the /events contract: the stream replays the
// durable journal from its first line — the versioned header — and a
// terminal job's stream ends instead of hanging.
func TestAPIEventsReplay(t *testing.T) {
	_, _, mkClient := newTestServer(t, 1, 30*time.Second)
	cl := mkClient("alice")

	js, err := cl.Submit(SubmitRequest{
		Minutes: 1,
		Options: spec(t, eof.Options{OS: "freertos", SyncEvery: 15 * time.Second}),
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if fin, err := cl.Wait(js.ID, 5*time.Millisecond); err != nil || fin.State != "done" {
		t.Fatalf("Wait: %v, %+v", err, fin)
	}

	rc, err := cl.Events(js.ID)
	if err != nil {
		t.Fatalf("Events: %v", err)
	}
	defer rc.Close()
	sc := bufio.NewScanner(rc)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	lines, headers := 0, 0
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		if lines == 0 {
			h, err := trace.ParseHeader(line)
			if err != nil {
				t.Fatalf("first events line is not a journal header: %v (line %q)", err, line)
			}
			if h.OS != "freertos" {
				t.Errorf("header OS = %q, want freertos", h.OS)
			}
		}
		if trace.IsHeaderLine(line) {
			headers++
		}
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream: %v", err)
	}
	if lines < 2 {
		t.Fatalf("events stream had %d lines, want header + events", lines)
	}
	// Each campaign slice contributes a header-prefixed segment; the
	// 1-minute budget over a 30s quantum yields at least two.
	if headers < 2 {
		t.Errorf("headers = %d, want one per slice (>= 2)", headers)
	}
}
