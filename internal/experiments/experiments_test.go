package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

func TestIDsCompleteAndOrdered(t *testing.T) {
	ids := IDs()
	want := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10",
		"E11", "E12", "E13", "E14", "E15", "E16", "A1", "A2", "A3", "A4", "A5", "A6"}
	if len(ids) != len(want) {
		t.Fatalf("IDs = %v, want %v", ids, want)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("IDs[%d] = %s, want %s (full: %v)", i, ids[i], want[i], ids)
		}
	}
}

func TestRunUnknownID(t *testing.T) {
	if _, err := Run("E99", 1); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestEveryExperimentProducesRows(t *testing.T) {
	for _, id := range IDs() {
		tbl, err := Run(id, 1)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if tbl.ID != id {
			t.Errorf("%s: table ID %q", id, tbl.ID)
		}
		if len(tbl.Rows) == 0 {
			t.Errorf("%s: no rows", id)
		}
		if len(tbl.Columns) == 0 {
			t.Errorf("%s: no columns", id)
		}
		for _, row := range tbl.Rows {
			if len(row) != len(tbl.Columns) {
				t.Errorf("%s: row width %d != %d columns: %v", id, len(row), len(tbl.Columns), row)
			}
		}
	}
}

func TestExperimentsDeterministic(t *testing.T) {
	for _, id := range []string{"E1", "E3", "E7", "E8"} {
		a, _ := Run(id, 5)
		b, _ := Run(id, 5)
		var bufA, bufB bytes.Buffer
		a.Render(&bufA)
		b.Render(&bufB)
		if bufA.String() != bufB.String() {
			t.Fatalf("%s not deterministic", id)
		}
	}
}

func TestRenderFormatting(t *testing.T) {
	tbl := &Table{ID: "X", Title: "demo", Columns: []string{"a", "bb"},
		Notes: []string{"hello"}}
	tbl.addRow("v", 3.14159)
	var buf bytes.Buffer
	tbl.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "== X: demo ==") {
		t.Fatalf("missing header: %q", out)
	}
	if !strings.Contains(out, "3.14") {
		t.Fatalf("float not formatted: %q", out)
	}
	if !strings.Contains(out, "note: hello") {
		t.Fatalf("missing note: %q", out)
	}
}

// grab parses a float out of a table cell like "47%" or "12.3".
func grab(t *testing.T, cell string) float64 {
	t.Helper()
	s := strings.TrimSuffix(strings.TrimSpace(cell), "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q not numeric: %v", cell, err)
	}
	return v
}

func TestFigure5Shape(t *testing.T) {
	tbl, _ := Run("E1", 1)
	fps := []float64{}
	for _, row := range tbl.Rows {
		fps = append(fps, grab(t, row[1]))
	}
	if !(fps[0] < fps[1] && fps[1] < fps[2]) {
		t.Fatalf("Figure 5 ordering broken: %v", fps)
	}
	if fps[0] < 8 || fps[0] > 15 || fps[1] < 45 || fps[1] > 62 || fps[2] < 100 || fps[2] > 125 {
		t.Fatalf("Figure 5 values off the paper's band: %v", fps)
	}
}

func TestTable2Shape(t *testing.T) {
	tbl, _ := Run("E2", 1)
	// Row 0 is unconstrained: FB < Periscope < YouTube.
	base := tbl.Rows[0]
	fb, ps, yt := grab(t, base[1]), grab(t, base[2]), grab(t, base[3])
	if !(fb < ps && ps < yt) {
		t.Fatalf("base ordering broken: %v %v %v", fb, ps, yt)
	}
	// 0.5Mbps rows inflate every platform; YouTube least on the download
	// side (its ladder reaches 144p), Periscope most (no adaptation).
	for _, i := range []int{3, 4} {
		row := tbl.Rows[i]
		for col := 1; col <= 3; col++ {
			if grab(t, row[col]) < grab(t, base[col])*1.15 {
				t.Fatalf("row %d col %d did not inflate: %s vs base %s", i, col, row[col], base[col])
			}
		}
		if !(grab(t, row[2]) > grab(t, row[1]) && grab(t, row[2]) > grab(t, row[3])) {
			t.Fatalf("row %d: Periscope not the worst: %v", i, row)
		}
	}
}

func TestTilingSavingsBand(t *testing.T) {
	tbl, _ := Run("E3", 1)
	foundBand := false
	for _, row := range tbl.Rows {
		if row[3] == "—" {
			continue
		}
		s := grab(t, row[3])
		if s >= 40 && s <= 85 {
			foundBand = true
		}
		if s < 5 {
			t.Fatalf("a tiling policy saved only %v%%", s)
		}
	}
	if !foundBand {
		t.Fatal("no policy landed in the cited 45–80% band")
	}
}

func TestVersioningRatio(t *testing.T) {
	tbl, _ := Run("E4", 1)
	found := false
	for _, row := range tbl.Rows {
		if row[0] == "versioning (Oculus-style)" {
			found = true
			if ratio := grab(t, row[3]); ratio < 10 {
				t.Fatalf("versioning ratio %v, want ≫1", ratio)
			}
		}
		if strings.HasPrefix(row[0], "versioning delivery") {
			if !strings.Contains(row[1], "switches") {
				t.Fatalf("delivery row missing switch count: %v", row)
			}
		}
	}
	if !found {
		t.Fatal("versioning storage row missing")
	}
}

func TestSize360NearFive(t *testing.T) {
	tbl, _ := Run("E11", 1)
	for _, row := range tbl.Rows {
		if strings.HasPrefix(row[0], "geometric ratio") {
			if r := grab(t, row[1]); r < 4 || r > 7 {
				t.Fatalf("geometric ratio %v outside the ≈5× claim", r)
			}
			return
		}
	}
	t.Fatal("geometric ratio row missing")
}

func TestRunAllMatchesIDs(t *testing.T) {
	tables := RunAll(1)
	ids := IDs()
	if len(tables) != len(ids) {
		t.Fatalf("RunAll returned %d tables for %d IDs", len(tables), len(ids))
	}
	for i, tbl := range tables {
		if tbl.ID != ids[i] {
			t.Fatalf("RunAll[%d] = %s, want %s", i, tbl.ID, ids[i])
		}
	}
}

func TestRenderCSV(t *testing.T) {
	tbl := &Table{ID: "X", Title: "demo", Columns: []string{"a", "b"}}
	tbl.addRow("plain", `has "quotes", commas`)
	var buf bytes.Buffer
	tbl.RenderCSV(&buf)
	out := buf.String()
	if !strings.Contains(out, "# X: demo") {
		t.Fatalf("missing metadata comment: %q", out)
	}
	if !strings.Contains(out, `plain,"has ""quotes"", commas"`) {
		t.Fatalf("CSV escaping wrong: %q", out)
	}
}
