package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"spider/internal/obs"
	"spider/internal/sim"
)

// startDaemon boots a paced daemon over a fresh corridor world and
// returns it with its HTTP test server and a channel that delivers Run's
// result and then closes. Pacing keeps the world alive for the duration
// of the test instead of sprinting to the horizon.
func startDaemon(t *testing.T, cfg DaemonConfig) (*Daemon, *httptest.Server, <-chan error) {
	t.Helper()
	srv, err := Open(t.TempDir(), corridorWorld())
	if err != nil {
		t.Fatal(err)
	}
	d := NewDaemon(srv, cfg)
	ctx, cancel := context.WithCancel(context.Background())
	ran := make(chan error, 1)
	go func() { ran <- d.Run(ctx); close(ran) }()
	ts := httptest.NewServer(d.Handler())
	t.Cleanup(func() {
		ts.Close()
		cancel()
		<-ran
	})
	return d, ts, ran
}

func TestHTTPStatusAndIntentFlow(t *testing.T) {
	_, ts, _ := startDaemon(t, DaemonConfig{
		Quantum: sim.Time(100 * time.Millisecond),
		Pace:    10, // 1s virtual per 100ms wall
	})

	resp, err := http.Get(ts.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.ConfigHash == "" || st.Clients != 1 {
		t.Fatalf("status = %+v", st)
	}

	// Durably admit a client two virtual seconds out.
	body := `{"kind":"add-client","after_ns":2000000000,` +
		`"client":{"id":5,"route":{"points":[{"X":350,"Y":5}]}}}`
	resp, err = http.Post(ts.URL+"/v1/intents", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var in Intent
	if err := json.NewDecoder(resp.Body).Decode(&in); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || in.Kind != IntentAddClient || in.Seq != 0 {
		t.Fatalf("intent response %d: %+v", resp.StatusCode, in)
	}
	if in.ApplyAtNS < 2000000000 {
		t.Fatalf("apply_at_ns = %d, want >= 2s", in.ApplyAtNS)
	}

	// Malformed payloads are 4xx, not accepted.
	resp, _ = http.Post(ts.URL+"/v1/intents", "application/json", strings.NewReader(`{"kind":"add-client"}`))
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("invalid intent: status %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp, _ = http.Post(ts.URL+"/v1/intents", "application/json", strings.NewReader(`not json`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage body: status %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Snapshot on demand.
	resp, err = http.Post(ts.URL+"/v1/snapshot", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot: status %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Wait until the intent has applied, then confirm via status.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/status")
		if err != nil {
			t.Fatal(err)
		}
		json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if st.AppliedIntents >= 1 && st.Clients == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("intent never applied: %+v", st)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestHTTPIntentBodyTooLarge: an intent body over maxIntentBody is refused
// with 413 before anything is journaled, and the daemon keeps accepting.
func TestHTTPIntentBodyTooLarge(t *testing.T) {
	_, ts, _ := startDaemon(t, DaemonConfig{
		Quantum: sim.Time(100 * time.Millisecond),
		Pace:    10,
	})
	huge := `{"kind":"add-client","pad":"` + strings.Repeat("a", maxIntentBody) + `"}`
	resp, err := http.Post(ts.URL+"/v1/intents", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize intent: status %d, want 413", resp.StatusCode)
	}

	// The WAL assigns sequence numbers, so seq 0 proves the oversize body
	// never reached it.
	body := `{"kind":"add-client","after_ns":1000000000,` +
		`"client":{"id":5,"route":{"points":[{"X":350,"Y":5}]}}}`
	resp, err = http.Post(ts.URL+"/v1/intents", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var in Intent
	if err := json.NewDecoder(resp.Body).Decode(&in); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || in.Seq != 0 {
		t.Fatalf("valid intent after oversize one: status %d, %+v", resp.StatusCode, in)
	}
}

// TestHTTPIntentUnknownKeyRefused: an intent body carrying a key this
// build does not declare, at the top level or nested, answers 400 with an
// error naming the key, and nothing is journaled.
func TestHTTPIntentUnknownKeyRefused(t *testing.T) {
	_, ts, _ := startDaemon(t, DaemonConfig{
		Quantum: sim.Time(100 * time.Millisecond),
		Pace:    10,
	})
	for key, body := range map[string]string{
		"max_window": `{"kind":"add-client","after_ns":1000000000,"max_window":3,` +
			`"client":{"id":5,"route":{"points":[{"X":350,"Y":5}]}}}`,
		"speed": `{"kind":"add-client","after_ns":1000000000,` +
			`"client":{"id":5,"speed":3,"route":{"points":[{"X":350,"Y":5}]}}}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/intents", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), key) {
			t.Fatalf("intent with unknown key %q: status %d, %s", key, resp.StatusCode, msg)
		}
	}

	// The WAL assigns sequence numbers, so seq 0 proves neither refused
	// body reached it.
	body := `{"kind":"add-client","after_ns":1000000000,` +
		`"client":{"id":5,"route":{"points":[{"X":350,"Y":5}]}}}`
	resp, err := http.Post(ts.URL+"/v1/intents", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var in Intent
	if err := json.NewDecoder(resp.Body).Decode(&in); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || in.Seq != 0 {
		t.Fatalf("valid intent after refused ones: status %d, %+v", resp.StatusCode, in)
	}
}

func TestHTTPEventStream(t *testing.T) {
	_, ts, _ := startDaemon(t, DaemonConfig{
		Quantum: sim.Time(200 * time.Millisecond),
		Pace:    20,
	})
	resp, err := http.Get(ts.URL + "/v1/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	// The stream must yield valid events within the test budget.
	sc := bufio.NewScanner(resp.Body)
	got := 0
	for sc.Scan() && got < 5 {
		var ev obs.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		got++
	}
	if got < 5 {
		t.Fatalf("stream yielded only %d events", got)
	}
}

func TestHTTPQueueFullAnd503(t *testing.T) {
	// No loop running: the control queue never drains, so the first
	// request times out (503) and the second finds the queue full (429).
	srv, err := Open(t.TempDir(), corridorWorld())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	d := NewDaemon(srv, DaemonConfig{QueueLen: 1, RequestDeadline: 100 * time.Millisecond})
	ts := httptest.NewServer(d.Handler())
	defer ts.Close()

	first := make(chan int, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/v1/metrics")
		if err != nil {
			first <- 0
			return
		}
		resp.Body.Close()
		first <- resp.StatusCode
	}()
	time.Sleep(30 * time.Millisecond) // let the first request occupy the queue
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After")
	}
	if code := <-first; code != http.StatusServiceUnavailable {
		t.Fatalf("first request: status %d, want 503", code)
	}
	// Status stays lock-free and live through all of it.
	resp, err = http.Get(ts.URL + "/v1/status")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("status endpoint blocked: %v %d", err, resp.StatusCode)
	}
	resp.Body.Close()
}

func TestHTTPShutdownDrains(t *testing.T) {
	d, ts, ran := startDaemon(t, DaemonConfig{
		Quantum: sim.Time(100 * time.Millisecond),
		Pace:    10,
	})
	resp, err := http.Post(ts.URL+"/v1/shutdown", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if err := <-ran; err != nil {
		t.Fatalf("drain failed: %v", err)
	}
	// The drain checkpointed: a lifecycle checkpoint event exists.
	found := false
	for _, ev := range d.srv.Lifecycle().Events() {
		if ev.Kind == obs.KindServeCheckpoint {
			found = true
		}
	}
	if !found {
		t.Fatal("no checkpoint recorded during drain")
	}
}

// TestDaemonRunsToHorizon exercises the free-running path end to end:
// no pacing, a short Until, drain at the limit.
func TestDaemonRunsToHorizon(t *testing.T) {
	srv, err := Open(t.TempDir(), corridorWorld())
	if err != nil {
		t.Fatal(err)
	}
	d := NewDaemon(srv, DaemonConfig{
		Quantum: sim.Time(time.Second),
		Until:   sim.Time(10 * time.Second),
	})
	if err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if srv.Now() != 10*time.Second {
		t.Fatalf("stopped at %s, want 10s", srv.Now())
	}
	st := d.status.Load()
	if !st.Draining || st.Checkpoints == 0 {
		t.Fatalf("final status %+v", st)
	}
}
