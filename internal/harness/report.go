package harness

// The one report schema behind every figure: each runner appends Rows
// to a Report, and two renderers read it. RenderCSV writes long-form
// rows for plotting; RenderTable writes either a pivot grid (the
// register sweeps and the map) or one line per row (watch, serve,
// latency, rmw), whichever the building figure chose.

import (
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"
)

// A Report is one figure's outcome.
type Report struct {
	// ID is the figure id: the CSV's first column and the table's title.
	ID      string
	Caption string
	// Params is one line of run parameters printed under the title.
	Params string
	// Grid pivots the table when set; nil prints one line per row.
	Grid *Grid
	Rows []Row
}

// A Row is one measured cell of a figure.
type Row struct {
	// Tags are the cell's coordinates: its series (algorithm or
	// subscriber discipline) and axes such as size, threads, M, keys,
	// watchers or clients.
	Tags []Field
	// Metrics are the cell's measurements.
	Metrics []Field
	// Err marks an infeasible cell (e.g. RF beyond 58 readers), which
	// has no metrics.
	Err error
}

// A Field is one named value of a row, a tag or a metric. Tags and
// metrics appear in the CSV and the table in their slice order.
type Field struct {
	// Name heads the field's CSV column; empty keeps it out of the CSV.
	Name string
	// Label heads its table column; empty keeps it off the table.
	Label string
	// Unit picks the format. An empty Unit marks a text field, whose
	// value is Text. The CSV prints "Mops/s" and "ratio" with four
	// decimals, "us" and "%" with one, every other unit as an integer.
	// Tables print "ns" as a duration, "Mops/s" with two decimals,
	// "ratio" with four, "%" with one and a percent sign, and the rest
	// as integers.
	Unit  string
	Value float64
	Text  string
}

// A Grid lays a report out as one panel per Section: one line per
// distinct set of labelled tags, one column per value of the Across
// tag.
type Grid struct {
	Across   string
	Sections []Section
}

// A Section is one panel of a grid: the rows whose Tag equals Value
// (every row when Tag is empty), showing Metric in each cell.
type Section struct {
	Title  string
	Tag    string
	Value  float64
	Metric string
}

// sweep measures n cells in order, appending each cell's row and
// reporting progress (nil for none).
func (rep *Report) sweep(n int, progress func(done, total int, r Row), measure func(i int) (Row, error)) error {
	for i := range n {
		row, err := measure(i)
		if err != nil {
			return err
		}
		rep.Rows = append(rep.Rows, row)
		if progress != nil {
			progress(i+1, n, row)
		}
	}
	return nil
}

// num builds a numeric field; an empty label keeps it off the table.
func num[T ~int | ~int64 | ~uint64 | ~float64](name, label, unit string, v T) Field {
	return Field{Name: name, Label: label, Unit: unit, Value: float64(v)}
}

// text builds a text field.
func text(name, label, s string) Field { return Field{Name: name, Label: label, Text: s} }

func (f Field) csv() string {
	switch f.Unit {
	case "":
		return f.Text
	case "Mops/s", "ratio":
		return strconv.FormatFloat(f.Value, 'f', 4, 64)
	case "us", "%":
		return strconv.FormatFloat(f.Value, 'f', 1, 64)
	}
	return strconv.FormatFloat(f.Value, 'f', 0, 64)
}

func (f Field) table() string {
	switch f.Unit {
	case "":
		return f.Text
	case "ns":
		return time.Duration(f.Value).String()
	case "Mops/s":
		return strconv.FormatFloat(f.Value, 'f', 2, 64)
	case "ratio":
		return strconv.FormatFloat(f.Value, 'f', 4, 64)
	case "%":
		return strconv.FormatFloat(f.Value, 'f', 1, 64) + "%"
	}
	return strconv.FormatFloat(f.Value, 'f', 0, 64)
}

func (r Row) fields() []Field { return append(slices.Clip(r.Tags), r.Metrics...) }

// Get returns the tag or metric whose Name or Label is key, or the zero
// Field.
func (r Row) Get(key string) Field {
	for _, f := range r.fields() {
		if f.Name == key || f.Label == key {
			return f
		}
	}
	return Field{}
}

// String summarizes the row for a progress line.
func (r Row) String() string {
	var tags, metrics []string
	for _, t := range r.Tags {
		tags = append(tags, t.Name+"="+t.table())
	}
	if r.Err != nil {
		return strings.Join(tags, " ") + ": n/a (" + r.Err.Error() + ")"
	}
	for _, m := range r.Metrics {
		if m.Label != "" {
			metrics = append(metrics, m.Label+" "+m.table())
		}
	}
	return strings.Join(tags, " ") + ": " + strings.Join(metrics, ", ")
}

// pick returns the strings of the fields kept by a non-empty key.
func pick(fs []Field, key func(Field) string, val func(Field) string) []string {
	var out []string
	for _, f := range fs {
		if key(f) != "" {
			out = append(out, val(f))
		}
	}
	return out
}

func fieldName(f Field) string  { return f.Name }
func fieldLabel(f Field) string { return f.Label }

// RenderCSV appends the report's feasible rows in long form: the figure
// id, then every named tag and metric, under a header line taken from
// the first feasible row.
func (rep *Report) RenderCSV(w io.Writer) {
	header := false
	for _, r := range rep.Rows {
		if r.Err != nil {
			continue
		}
		if !header {
			fmt.Fprintln(w, strings.Join(append([]string{"figure"}, pick(r.fields(), fieldName, fieldName)...), ","))
			header = true
		}
		fmt.Fprintln(w, strings.Join(append([]string{rep.ID}, pick(r.fields(), fieldName, Field.csv)...), ","))
	}
}

// RenderTable writes the report as an aligned ASCII table.
func (rep *Report) RenderTable(w io.Writer) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "== %s: %s ==\n%s\n", rep.ID, rep.Caption, rep.Params)
	if rep.Grid == nil {
		for i, r := range rep.Rows {
			if i == 0 {
				tabLine(tw, pick(r.fields(), fieldLabel, fieldLabel))
			}
			tabLine(tw, pick(r.fields(), fieldLabel, Field.table))
		}
	} else {
		for _, s := range rep.Grid.Sections {
			fmt.Fprintf(tw, "\n-- %s --\n", s.Title)
			rep.Grid.panel(tw, rep.Rows, s)
		}
	}
	fmt.Fprintln(tw)
	tw.Flush()
}

// panel writes one grid section. Lines and columns keep the order in
// which their rows first appear; a missing cell prints "-" and an
// infeasible one "n/a".
func (g *Grid) panel(w io.Writer, rows []Row, s Section) {
	var heads, keys, cols []string
	cells := map[[2]string]string{}
	for _, r := range rows {
		if s.Tag != "" && r.Get(s.Tag).Value != s.Value {
			continue
		}
		var key []string
		var col string
		heads = heads[:0]
		for _, t := range r.Tags {
			switch {
			case t.Name == g.Across:
				col = t.Text
				if t.Unit != "" {
					col = t.table() + " " + t.Label
				}
			case t.Label != "":
				heads = append(heads, t.Label)
				key = append(key, t.table())
			}
		}
		k := strings.Join(key, "\t")
		if !slices.Contains(keys, k) {
			keys = append(keys, k)
		}
		if !slices.Contains(cols, col) {
			cols = append(cols, col)
		}
		cells[[2]string{k, col}] = "n/a"
		if r.Err == nil {
			cells[[2]string{k, col}] = r.Get(s.Metric).table()
		}
	}
	tabLine(w, append(heads, cols...))
	for _, k := range keys {
		out := []string{k}
		for _, c := range cols {
			v, ok := cells[[2]string{k, c}]
			if !ok {
				v = "-"
			}
			out = append(out, v)
		}
		tabLine(w, out)
	}
}

// tabLine writes tab-terminated cells for the tabwriter to right-align.
func tabLine(w io.Writer, cells []string) {
	fmt.Fprintln(w, strings.Join(cells, "\t")+"\t")
}
