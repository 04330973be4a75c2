package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"os"
	"regexp"
	"runtime/pprof"
	"testing"
	"time"
)

// pbKey appends a protobuf field key.
func pbKey(b []byte, num, wire int) []byte {
	return binary.AppendUvarint(b, uint64(num)<<3|uint64(wire))
}

// pbInt appends a varint field.
func pbInt(b []byte, num int, v uint64) []byte { return binary.AppendUvarint(pbKey(b, num, 0), v) }

// pbMsg appends a length-delimited field.
func pbMsg(b []byte, num int, msg []byte) []byte {
	b = binary.AppendUvarint(pbKey(b, num, 2), uint64(len(msg)))
	return append(b, msg...)
}

// pbPacked appends a packed repeated varint field.
func pbPacked(b []byte, num int, vs ...uint64) []byte {
	var run []byte
	for _, v := range vs {
		run = binary.AppendUvarint(run, v)
	}
	return pbMsg(b, num, run)
}

// syntheticProfile encodes a gzipped CPU profile whose samples have the
// given stacks (each a list of locations, leaf first; each location a list
// of functions, inlined callee first), 10 ms each.
func syntheticProfile(t *testing.T, stacks [][][]string) []byte {
	t.Helper()
	strs := []string{"", "samples", "count", "cpu", "nanoseconds"}
	index := map[string]uint64{}
	var p []byte
	for _, vt := range [][2]uint64{{1, 2}, {3, 4}} {
		p = pbMsg(p, 1, pbInt(pbInt(nil, 1, vt[0]), 2, vt[1]))
	}
	fnID := func(name string) uint64 {
		if id, ok := index[name]; ok {
			return id
		}
		strs = append(strs, name)
		id := uint64(len(index) + 1)
		index[name] = id
		p = pbMsg(p, 5, pbInt(pbInt(nil, 1, id), 2, uint64(len(strs)-1)))
		return id
	}
	locID := uint64(0)
	for i, st := range stacks {
		var locs []uint64
		for _, loc := range st {
			locID++
			l := pbInt(nil, 1, locID)
			for _, fn := range loc {
				l = pbMsg(l, 4, pbInt(nil, 1, fnID(fn)))
			}
			p = pbMsg(p, 4, l)
			locs = append(locs, locID)
		}
		var s []byte
		if i%2 == 0 {
			s = pbPacked(s, 1, locs...)
		} else { // unpacked, as an encoder may write short runs
			for _, id := range locs {
				s = pbInt(s, 1, id)
			}
		}
		s = pbPacked(s, 2, 1, uint64(10*time.Millisecond))
		p = pbMsg(p, 2, s)
	}
	for _, str := range strs {
		p = pbMsg(p, 6, []byte(str))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(p); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

func TestAttributeSyntheticProfile(t *testing.T) {
	cases := []struct {
		stack [][]string
		want  string
	}{
		// A stdlib helper under a layer frame charges to that layer.
		{[][]string{{"runtime.mallocgc"}, {"spider/internal/phy.(*Medium).deliver"}, {"spider/internal/sim.(*Engine).Run"}}, "phy"},
		// A GC background worker charges to runtime.gc.
		{[][]string{{"runtime.scanobject"}, {"runtime.gcDrain"}, {"runtime.gcBgMarkWorker"}}, "runtime.gc"},
		// An inlined callee comes first in its location; geo folds into mobility.
		{[][]string{{"spider/internal/geo.Point.Dist", "spider/internal/phy.(*Medium).inRange"}}, "mobility"},
		// A non-layer internal package is a helper of its caller.
		{[][]string{{"spider/internal/stats.Jain"}, {"spider/internal/core.(*Scenario).Finalize"}}, "core"},
		// A GC assist inside a layer charges to the layer, not to runtime.gc.
		{[][]string{{"runtime.gcAssistAlloc"}, {"runtime.mallocgc"}, {"spider/internal/tcpsim.(*Sender).send"}}, "tcpsim"},
		{[][]string{{"runtime.futex"}, {"runtime.mcall"}}, "other"},
	}
	stacks := make([][][]string, len(cases))
	for i, c := range cases {
		stacks[i] = c.stack
	}
	samples, err := decodeProfile(syntheticProfile(t, stacks))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != len(cases) {
		t.Fatalf("decoded %d samples, want %d", len(samples), len(cases))
	}
	for i, c := range cases {
		if samples[i].ns != int64(10*time.Millisecond) {
			t.Errorf("sample %d: %d ns, want 10ms", i, samples[i].ns)
		}
		if got := attribute(samples[i]); got != c.want {
			t.Errorf("sample %d %v: charged to %q, want %q", i, samples[i].funcs, got, c.want)
		}
	}
	charged := map[string]int64{}
	chargeLayers(charged, samples)
	if charged["phy"] != int64(10*time.Millisecond) || charged["runtime.gc"] != int64(10*time.Millisecond) {
		t.Errorf("charged %v", charged)
	}
}

// burn keeps a CPU busy for d so the profiler has something to sample.
func burn(d time.Duration) uint64 {
	x := uint64(1)
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1e5; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

func TestDecodeRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("profiler busy:", err)
	}
	burn(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, s := range samples {
		total += s.ns
		if len(s.funcs) == 0 {
			t.Fatalf("sample without a stack: %+v", s)
		}
	}
	if total <= 0 {
		t.Fatalf("no CPU time in %d samples", len(samples))
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{0, 0}, {19, 0}, {20, 500}, {99, 500}, {100, 900}, {199, 900},
		{200, 950}, {999, 950}, {1000, 990}, {9999, 990}, {10000, 999},
	} {
		if got := tailPermille(c.n); got != c.want {
			t.Errorf("tailPermille(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	// The ladder choice must leave ten samples beyond the value reported.
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	tm := summarize(xs)
	if tm.tailPermil != 950 || tm.tail != 190 || tm.p50 != 100 {
		t.Errorf("summarize(1..200) = %+v, want p95 = 190, p50 = 100", tm)
	}
	// serve-rush makes the same calls every repeat; its sample counts
	// choose the percentiles the catalog names.
	acks := rushVehicles + 1 // every vehicle plus the chaos intent
	advances := int(rushHorizon / rushQuantum)
	for _, c := range []struct {
		name string
		n    int
	}{{"serve.ack_us", acks}, {"serve.advance_ms", advances}} {
		name := c.name + "." + percentileLabel(tailPermille(c.n))
		if !hasMetric(name) {
			t.Errorf("%d samples report %s, which the catalog lacks", c.n, name)
		}
	}
}

func hasMetric(name string) bool {
	for _, m := range perLayer() {
		if m.name == name {
			return true
		}
	}
	return false
}

func TestMetricNames(t *testing.T) {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer()...) {
		if !nameRE.MatchString(m.name) {
			t.Errorf("metric name %q does not match %s", m.name, nameRE)
		}
		if !unitRE.MatchString(m.unit) {
			t.Errorf("metric %s: unit %q does not match %s", m.name, m.unit, unitRE)
		}
		if seen[m.name] {
			t.Errorf("metric %s listed twice", m.name)
		}
		seen[m.name] = true
	}
}

// benchmarkFile is the part of BENCHMARK.json the catalog must match.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, benchmark has %q: %q", i, f.Workloads[i], w.name, w.why)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, catalog %d", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			if got[i].Name != m.name || got[i].Unit != m.unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], catalog %s [%s]", kind, i, got[i].Name, got[i].Unit, m.name, m.unit)
			}
		}
	}
	check("end_to_end", f.EndToEnd, endToEnd)
	check("per_layer", f.PerLayer, perLayer())
}
