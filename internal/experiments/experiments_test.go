package experiments

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"
)

func quick() Options {
	return Options{Hours: 0.2, Runs: 1, SeedBase: 11, Parallel: 4}
}

func TestTableRender(t *testing.T) {
	tab := &Table{
		Title:   "demo",
		Columns: []string{"a", "bb"},
		Rows:    [][]string{{"x", "y"}, {"longer", "z"}},
		Notes:   []string{"note text"},
	}
	out := tab.Render()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "longer") || !strings.Contains(out, "note:") {
		t.Fatalf("render:\n%s", out)
	}
	csv := tab.CSV()
	if !strings.HasPrefix(csv, "a,bb\n") {
		t.Fatalf("csv:\n%s", csv)
	}
}

func TestMergeSeries(t *testing.T) {
	runs := [][]Point{
		{{At: time.Minute, Mean: 10}, {At: 2 * time.Minute, Mean: 20}},
		{{At: time.Minute, Mean: 30}, {At: 3 * time.Minute, Mean: 40}},
	}
	s := mergeSeries("x", runs)
	if len(s.Points) != 3 {
		t.Fatalf("points: %+v", s.Points)
	}
	if s.Points[0].Mean != 20 || s.Points[0].Min != 10 || s.Points[0].Max != 30 {
		t.Fatalf("first point: %+v", s.Points[0])
	}
	// At 2min, run 2 still reads 30 (step semantics).
	if s.Points[1].Mean != 25 {
		t.Fatalf("second point: %+v", s.Points[1])
	}
}

func TestFigureRenderAndCSV(t *testing.T) {
	f := &Figure{
		Title: "fig",
		Series: []Series{{
			Label:  "EOF",
			Points: []Point{{At: time.Hour, Mean: 100, Min: 90, Max: 110}},
		}},
	}
	if !strings.Contains(f.Render(), "EOF") {
		t.Fatal("render missing series label")
	}
	if !strings.Contains(f.CSV(), "EOF,1.000,100.0,90.0,110.0") {
		t.Fatalf("csv:\n%s", f.CSV())
	}
}

func TestMemoryOverheadShape(t *testing.T) {
	tab, err := MemoryOverhead()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows: %d", len(tab.Rows))
	}
	// Every OS must land in the paper's plausible band (2–15%).
	for _, row := range tab.Rows {
		v, err := strconv.ParseFloat(strings.TrimSuffix(row[3], "%"), 64)
		if err != nil {
			t.Fatalf("bad pct %q", row[3])
		}
		if v < 2 || v > 15 {
			t.Errorf("%s instrumentation overhead %.2f%% outside band", row[0], v)
		}
	}
	t.Logf("\n%s", tab.Render())
}

func TestExecOverheadShape(t *testing.T) {
	tab, err := ExecOverhead(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows: %d", len(tab.Rows))
	}
	// Instrumentation must slow execution down, not speed it up.
	for _, row := range tab.Rows {
		v, err := strconv.ParseFloat(strings.TrimSuffix(row[3], "%"), 64)
		if err != nil {
			t.Fatalf("bad pct %q", row[3])
		}
		if v < 0 {
			t.Errorf("%s: negative execution overhead %q", row[0], row[3])
		}
	}
	t.Logf("\n%s", tab.Render())
}

func TestTable2Quick(t *testing.T) {
	res, err := Table2(Options{Hours: 0.3, Runs: 1, SeedBase: 33, Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalFound == 0 {
		t.Fatal("no registered bugs found even in the quick profile")
	}
	t.Logf("found %d/19 registered bugs in the quick profile\n%s", res.TotalFound, res.Table.Render())
}

func TestAblationLinkFaultsShape(t *testing.T) {
	tab, err := AblationLinkFaults(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows: %d", len(tab.Rows))
	}
	clean, faulty := tab.Rows[0], tab.Rows[len(tab.Rows)-1]
	if clean[5] != "0.0" || clean[6] != "0.0" {
		t.Fatalf("fault-free row reports retries/reconnects: %v", clean)
	}
	if faulty[5] == "0.0" {
		t.Fatalf("10%% fault row absorbed nothing: %v", faulty)
	}
	t.Logf("\n%s", tab.Render())
}

// TestTimeAccountingShape renders E-time: one share column per board-time
// category, each row's shares summing to its whole budget.
func TestTimeAccountingShape(t *testing.T) {
	tab, err := TimeAccounting(Options{Hours: 0.1, Runs: 1, SeedBase: 11, Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows: %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if len(row) != len(tab.Columns) {
			t.Fatalf("row %v has %d cells for %d columns %v", row, len(row), len(tab.Columns), tab.Columns)
		}
		sum := 0.0
		for _, cell := range row[2:] {
			var share float64
			if _, err := fmt.Sscanf(cell, "%f%%", &share); err != nil {
				t.Fatalf("share cell %q: %v", cell, err)
			}
			sum += share
		}
		if sum < 99.5 || sum > 100.5 {
			t.Fatalf("row %v shares sum to %.1f%%", row, sum)
		}
	}
	t.Logf("\n%s", tab.Render())
}

func TestAblationResilienceShape(t *testing.T) {
	tab, err := AblationResilience(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows: %d", len(tab.Rows))
	}
	healthy := tab.Rows[0]
	// Columns: rate, execs, edges, edges/h, escalations, quarantines,
	// promotions, dead boards, vs healthy.
	if healthy[5] != "0.0" || healthy[7] != "0.0" {
		t.Fatalf("healthy row reports quarantines/dead boards: %v", healthy)
	}
	if healthy[8] != "-" {
		t.Fatalf("healthy row should not normalise against itself: %v", healthy)
	}
	t.Logf("\n%s", tab.Render())
}

func TestTriageEvalQuick(t *testing.T) {
	res, err := TriageEval(Options{Hours: 0.35, Runs: 1, SeedBase: 1234, Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Findings == 0 {
		t.Fatal("no findings triaged even in the quick profile")
	}
	if !res.AccountingOK {
		t.Fatal("board-time accounting broke under triage load")
	}
	// The acceptance bars from the paper's triage protocol: at least 90% of
	// findings confirm on replay and the median minimized program is at most
	// half the original.
	if res.ReproRate < 0.9 {
		t.Fatalf("repro rate %.0f%% below the 90%% bar (%d/%d)", res.ReproRate*100, res.Reproducible, res.Findings)
	}
	if res.MedianRatio > 0.5 {
		t.Fatalf("median minimization ratio %.0f%% above the 50%% bar", res.MedianRatio*100)
	}
	t.Logf("\n%s", res.Table.Render())
}

func TestAblationTierShape(t *testing.T) {
	tab, err := AblationTier(quick())
	if err != nil {
		t.Fatal(err)
	}
	out := tab.Render()
	if len(tab.Rows) != len(tierOSes)*2 {
		t.Fatalf("rows: %d\n%s", len(tab.Rows), out)
	}
	for i, row := range tab.Rows {
		wantMode := "all-hw"
		if i%2 == 1 {
			wantMode = "tiered"
		}
		if row[1] != wantMode {
			t.Fatalf("row %d mode %q, want %q\n%s", i, row[1], wantMode, out)
		}
		if wantMode == "all-hw" && row[3] != "-" {
			t.Fatalf("all-hw row carries emulation execs: %v", row)
		}
		if wantMode == "tiered" && (row[3] == "-" || row[6] == "-") {
			t.Fatalf("tiered row missing tier columns: %v", row)
		}
	}
	t.Log("\n" + out)
}

func TestAblationPersistShape(t *testing.T) {
	tab, err := AblationPersist(quick())
	if err != nil {
		t.Fatal(err)
	}
	out := tab.Render()
	if len(tab.Rows) != len(persistOSes)*4 {
		t.Fatalf("rows: %d\n%s", len(tab.Rows), out)
	}
	for i, row := range tab.Rows {
		mode := []string{"fresh", "persist", "resume", "cold"}[i%4]
		if row[1] != mode {
			t.Fatalf("row %d mode %q, want %q\n%s", i, row[1], mode, out)
		}
		switch mode {
		case "fresh":
			if row[5] != "-" || row[4] != "0.0" {
				t.Fatalf("fresh row carries store columns: %v", row)
			}
		case "persist":
			// The store must not perturb the campaign: identical coverage.
			if row[5] != "+0.00%" {
				t.Fatalf("persist row diverged from fresh: %v\n%s", row, out)
			}
			if row[4] == "0.0" {
				t.Fatalf("persist row committed no checkpoints: %v", row)
			}
		case "resume":
			if row[4] == "0.0" {
				t.Fatalf("resume row committed no checkpoints: %v", row)
			}
		}
	}
	t.Log("\n" + out)
}
