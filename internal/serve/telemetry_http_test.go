package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"spider/internal/obs"
	"spider/internal/sim"
)

// TestHTTPRollups drives a paced daemon past a few window closes and
// exercises GET /v1/rollups: full listing, the last-N and from_ns
// filters, and parameter validation.
func TestHTTPRollups(t *testing.T) {
	srv, err := Open(t.TempDir(), corridorWorld())
	if err != nil {
		t.Fatal(err)
	}
	d := NewDaemon(srv, DaemonConfig{
		Quantum: sim.Time(500 * time.Millisecond),
		Pace:    50, // 1 virtual second per 20ms wall
	})
	ctx, cancel := context.WithCancel(context.Background())
	go d.Run(ctx)
	ts := httptest.NewServer(d.Handler())
	t.Cleanup(func() { ts.Close(); cancel(); d.Wait() })

	get := func(path string) (rollupsResponse, int) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var rr rollupsResponse
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
				t.Fatal(err)
			}
		}
		return rr, resp.StatusCode
	}

	// Wait for at least three closed windows.
	var all rollupsResponse
	deadline := time.Now().Add(10 * time.Second)
	for {
		rr, code := get("/v1/rollups")
		if code != http.StatusOK {
			t.Fatalf("rollups: status %d", code)
		}
		if len(rr.Windows) >= 3 {
			all = rr
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d windows closed before deadline", len(rr.Windows))
		}
		time.Sleep(20 * time.Millisecond)
	}
	for i, w := range all.Windows {
		if w.Index != int64(i) {
			t.Fatalf("window %d has index %d", i, w.Index)
		}
		if w.EndNS-w.StartNS != int64(time.Second) {
			t.Fatalf("window %d spans %d ns, want 1s", i, w.EndNS-w.StartNS)
		}
	}

	last, code := get("/v1/rollups?last=1")
	if code != http.StatusOK || len(last.Windows) != 1 {
		t.Fatalf("last=1: status %d, %d windows", code, len(last.Windows))
	}
	from, code := get("/v1/rollups?from_ns=" + "1000000000")
	if code != http.StatusOK {
		t.Fatalf("from_ns: status %d", code)
	}
	for _, w := range from.Windows {
		if w.EndNS <= int64(time.Second) {
			t.Fatalf("from_ns filter leaked window ending at %d", w.EndNS)
		}
	}
	if _, code := get("/v1/rollups?last=bogus"); code != http.StatusBadRequest {
		t.Fatalf("bad last param: status %d, want 400", code)
	}
}

// TestHTTPRollupsDisabled: a spec that disables telemetry answers 404.
func TestHTTPRollupsDisabled(t *testing.T) {
	spec := corridorWorld()
	spec.Telemetry = &TelemetrySpec{Disable: true}
	srv, err := Open(t.TempDir(), spec)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDaemon(srv, DaemonConfig{Quantum: sim.Time(100 * time.Millisecond), Pace: 10})
	ctx, cancel := context.WithCancel(context.Background())
	go d.Run(ctx)
	ts := httptest.NewServer(d.Handler())
	t.Cleanup(func() { ts.Close(); cancel(); d.Wait() })

	resp, err := http.Get(ts.URL + "/v1/rollups")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("disabled telemetry: status %d, want 404", resp.StatusCode)
	}
}

// TestHTTPMetricsPrometheus (satellite): /v1/metrics serves the
// Prometheus text exposition with a pinned deterministic line order —
// metric lines arrive sorted, carry the spider_ prefix, and include the
// telemetry plane's counters.
func TestHTTPMetricsPrometheus(t *testing.T) {
	_, ts := startDaemon(t, DaemonConfig{
		Quantum: sim.Time(100 * time.Millisecond),
		Pace:    10,
	})
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	text := string(body)
	if !strings.Contains(text, "spider_telemetry_windows_closed") {
		t.Fatalf("exposition missing telemetry counter:\n%s", text)
	}
	// The renderer sorts the snapshot by (type, name), so every metric
	// line must carry the prefix and, within each declared type, names
	// must ascend — the pinned order the scrape-diff tooling relies on.
	// A _count/_sum pair would collapse to its base name.
	byType := make(map[string][]string)
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, "# TYPE ") {
			if line != "" && !strings.HasPrefix(line, "#") &&
				!strings.HasPrefix(line, "spider_") {
				t.Fatalf("metric line %q missing spider_ prefix", line)
			}
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 4 {
			t.Fatalf("malformed TYPE line %q", line)
		}
		name := strings.TrimSuffix(strings.TrimSuffix(fields[2], "_sum"), "_count")
		kind := fields[3]
		if g := byType[kind]; len(g) == 0 || g[len(g)-1] != name {
			byType[kind] = append(g, name)
		}
	}
	if len(byType) == 0 {
		t.Fatal("empty exposition")
	}
	for kind, names := range byType {
		if !sort.StringsAreSorted(names) {
			t.Fatalf("%s metrics out of order: %v", kind, names)
		}
	}
}

// TestPrometheusExpositionPinned pins the /v1/metrics exposition of the
// finalized script world against a fixed digest, so a change that moves
// every scrape the same way cannot pass unnoticed.
func TestPrometheusExpositionPinned(t *testing.T) {
	srv, err := Open(t.TempDir(), corridorWorld())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	driveScript(t, srv, testScript(), sim.Time(time.Second), testUntil)
	srv.Scenario().Finalize()
	text := obs.RenderPrometheus(srv.Scenario().Metrics())
	sum := sha256.Sum256([]byte(text))
	const want = "a73b53a768efedf5c5cd9cce2061f09e71bfab3c9596d1e504ddc19b88267ebd"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("exposition sha256 %s, want %s:\n%s", got, want, text)
	}
}
