package tracereport

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"spider/internal/telemetry"
)

// RollupFile is a parsed rollup JSONL export: the window series, grouped
// per run label.
type RollupFile struct {
	// Runs holds the run labels in sorted order ("" for unlabeled).
	Runs []string
	// Windows maps run label to its window series in file order.
	Windows map[string][]telemetry.Window
}

// ReadRollups parses rollup JSONL (telemetry.WriteRollupsJSONL output).
// Lines are validated strictly — a malformed line is an error, not a
// skip — matching ReadSpans' corruption stance.
func ReadRollups(r io.Reader) (*RollupFile, error) {
	rf := &RollupFile{Windows: make(map[string][]telemetry.Window)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	seen := make(map[string]bool)
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var rl telemetry.RollupLine
		if err := json.Unmarshal([]byte(text), &rl); err != nil {
			return nil, fmt.Errorf("tracereport: rollups line %d: %w", line, err)
		}
		if rl.Window == nil {
			return nil, fmt.Errorf("tracereport: rollups line %d: no window", line)
		}
		if !seen[rl.Run] {
			seen[rl.Run] = true
			rf.Runs = append(rf.Runs, rl.Run)
		}
		rf.Windows[rl.Run] = append(rf.Windows[rl.Run], *rl.Window)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	sort.Strings(rf.Runs)
	return rf, nil
}

// RollupReport renders the per-window breakdown of one run (empty label
// when the export is unlabeled): a window table, run totals with
// whole-run quantiles re-derived by merging the windows' sparse
// histograms, and SLO violation spans. Pure function of the input —
// byte-stable and golden-testable.
func (rf *RollupFile) RollupReport(run string) string {
	var b strings.Builder
	wins := rf.Windows[run]
	label := run
	if label == "" {
		label = "(unlabeled)"
	}
	fmt.Fprintf(&b, "run: %s  windows: %d\n\n", label, len(wins))
	if len(wins) == 0 {
		return b.String()
	}

	var rows [][]string
	for i := range wins {
		w := &wins[i]
		rows = append(rows, []string{
			fmt.Sprintf("%d", w.Index),
			fmt.Sprintf("%.1f", float64(w.StartNS)/1e9),
			fmt.Sprintf("%.1f", float64(w.EndNS)/1e9),
			fmt.Sprintf("%d", w.Clients),
			fmt.Sprintf("%d", w.ActiveClients),
			fmt.Sprintf("%d", w.GoodputBytes),
			fmt.Sprintf("%.3f", w.Jain),
			fmt.Sprintf("%d/%d", w.JoinOKs, w.JoinFails),
			fmt.Sprintf("%.1f", w.JoinP95MS),
			fmt.Sprintf("%.1f", w.RTTP50MS),
			fmt.Sprintf("%.1f", float64(w.OutageNS)/1e6),
			strings.Join(w.Violations, ";"),
		})
	}
	table(&b, "per-window rollups",
		[]string{"w", "start s", "end s", "clients", "active", "goodput B", "jain",
			"join ok/fail", "p95 ms", "rtt p50", "outage ms", "violations"}, rows)

	// Run totals; tails re-derived by merging every window's sparse
	// histogram — the whole point of exporting mergeable sketches.
	var goodput, joinOKs, joinFails, outageNS int64
	var joinHist, rttHist [][2]int64
	violWindows := make(map[string]int64)
	for i := range wins {
		w := &wins[i]
		goodput += w.GoodputBytes
		joinOKs += w.JoinOKs
		joinFails += w.JoinFails
		outageNS += w.OutageNS
		joinHist = mergeSparse(joinHist, w.JoinHist)
		rttHist = mergeSparse(rttHist, w.RTTHist)
		for _, v := range w.Violations {
			violWindows[v]++
		}
	}
	dur := float64(wins[len(wins)-1].EndNS-wins[0].StartNS) / 1e9
	fmt.Fprintf(&b, "== run totals ==\n")
	fmt.Fprintf(&b, "span: %.1f s  goodput: %d B  joins: %d ok / %d fail  outage: %.1f ms\n",
		dur, goodput, joinOKs, joinFails, float64(outageNS)/1e6)
	fmt.Fprintf(&b, "join latency p50/p95/p99 ms: %.1f / %.1f / %.1f\n",
		telemetry.QuantileFromSparse(joinHist, 0.50)/1e6,
		telemetry.QuantileFromSparse(joinHist, 0.95)/1e6,
		telemetry.QuantileFromSparse(joinHist, 0.99)/1e6)
	fmt.Fprintf(&b, "rtt p50/p95 ms: %.1f / %.1f\n\n",
		telemetry.QuantileFromSparse(rttHist, 0.50)/1e6,
		telemetry.QuantileFromSparse(rttHist, 0.95)/1e6)

	rows = rows[:0]
	rules := make([]string, 0, len(violWindows))
	for r := range violWindows {
		rules = append(rules, r)
	}
	sort.Strings(rules)
	for _, r := range rules {
		rows = append(rows, []string{r, fmt.Sprintf("%d", violWindows[r])})
	}
	table(&b, "SLO violations", []string{"rule", "windows in violation"}, rows)
	return b.String()
}

// mergeSparse adds two sparse histograms (ascending bucket order in,
// ascending out).
func mergeSparse(a, b [][2]int64) [][2]int64 {
	if len(a) == 0 {
		return append([][2]int64(nil), b...)
	}
	m := make(map[int64]int64, len(a)+len(b))
	for _, p := range a {
		m[p[0]] += p[1]
	}
	for _, p := range b {
		m[p[0]] += p[1]
	}
	out := make([][2]int64, 0, len(m))
	for k, v := range m {
		out = append(out, [2]int64{k, v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}
