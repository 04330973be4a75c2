package obs

import (
	"fmt"
	"sort"
	"strings"
)

// Metric is one sample of a world's counters, read from the count a layer
// already keeps (phy.Stats, driver.Stats, ipam.Stats, ...) at the moment
// the snapshot is taken.
type Metric struct {
	Name string
	// Gauge marks a level (pool occupancy); otherwise the value is a
	// monotonically increasing count.
	Gauge bool
	Value int64
}

// promName sanitizes a metric name into the Prometheus metric-name
// alphabet ([a-zA-Z0-9_:]) under the spider_ namespace: dots and dashes —
// the native separators — become underscores, anything else outside the
// alphabet does too.
func promName(name string) string {
	var b strings.Builder
	b.WriteString("spider_")
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// RenderPrometheus prints the samples in the Prometheus text exposition
// format: one `# TYPE` line plus one sample per metric, counters before
// gauges and each group sorted by name, so two renders of the same state
// are byte-identical whatever order the samples came in; /v1/metrics and
// its order-pinning test depend on that.
func RenderPrometheus(ms []Metric) string {
	ms = append([]Metric(nil), ms...)
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].Gauge != ms[j].Gauge {
			return !ms[i].Gauge
		}
		return ms[i].Name < ms[j].Name
	})
	var b strings.Builder
	for _, m := range ms {
		typ := "counter"
		if m.Gauge {
			typ = "gauge"
		}
		name := promName(m.Name)
		fmt.Fprintf(&b, "# TYPE %s %s\n%s %d\n", name, typ, name, m.Value)
	}
	return b.String()
}
