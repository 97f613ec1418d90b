// Package experiments regenerates every table and figure of the paper's
// evaluation, plus the quantitative claims woven through its text. Each
// experiment is a pure function from a seed to a Table whose rows mirror
// what the paper reports; cmd/sperke-bench renders them and
// TestRunAllGolden holds the whole suite to its golden output.
//
// The experiment IDs match DESIGN.md's per-experiment index: E1..E16
// for paper artifacts, A1..A6 for ablations of Sperke design choices.
package experiments

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"strings"

	"sperke/internal/obs"
)

// obsReg, when set, is wired into every session the suite runs so
// sperke-bench can dump an aggregate metrics snapshot. Nil disables
// metrics (the default; experiments stay pure functions of their seed —
// metrics are observation only and never feed back into results).
var obsReg *obs.Registry

// SetObs routes all subsequently-run experiments' player-side metrics
// (caches, decode scheduler, fetch pipeline) into the registry.
func SetObs(r *obs.Registry) { obsReg = r }

// Table is one experiment's output: labeled columns, formatted rows,
// and free-form notes (calibration caveats, paper reference values).
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// addRow appends a formatted row; values are Sprint-ed.
func (t *Table) addRow(vals ...any) {
	row := make([]string, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", x)
		case string:
			row[i] = x
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			parts[i] = fmt.Sprintf("%-*s", w, c)
		}
		fmt.Fprintln(w, "  "+strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// RenderCSV writes the table as RFC-4180-ish CSV (experiment metadata in
// a comment line), for plotting pipelines.
func (t *Table) RenderCSV(w io.Writer) {
	fmt.Fprintf(w, "# %s: %s\n", t.ID, t.Title)
	writeCSVRow(w, t.Columns)
	for _, row := range t.Rows {
		writeCSVRow(w, row)
	}
}

func writeCSVRow(w io.Writer, cells []string) {
	out := make([]string, len(cells))
	for i, c := range cells {
		if strings.ContainsAny(c, ",\"\n") {
			c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
		}
		out[i] = c
	}
	fmt.Fprintln(w, strings.Join(out, ","))
}

// runner produces one experiment's table from a seed.
type runner func(seed int64) *Table

// registry maps experiment IDs to runners.
var registry = map[string]runner{}

func register(id string, r runner) {
	if _, dup := registry[id]; dup {
		panic("experiments: duplicate id " + id)
	}
	registry[id] = r
}

// IDs returns the registered experiment IDs in a stable order: E* by
// number, then A*.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	slices.SortFunc(out, func(a, b string) int {
		if c := cmp.Compare(b[0], a[0]); c != 0 { // 'E' before 'A'
			return c
		}
		return cmp.Compare(num(a), num(b))
	})
	return out
}

func num(id string) int {
	n := 0
	for _, c := range id[1:] {
		if c < '0' || c > '9' {
			break
		}
		n = n*10 + int(c-'0')
	}
	return n
}

// Run executes one experiment by ID.
func Run(id string, seed int64) (*Table, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown id %q (have %v)", id, IDs())
	}
	return r(seed), nil
}

// RunAll executes every experiment in order.
func RunAll(seed int64) []*Table {
	var out []*Table
	for _, id := range IDs() {
		t, _ := Run(id, seed)
		out = append(out, t)
	}
	return out
}
