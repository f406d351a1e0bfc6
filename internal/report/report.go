// Package report renders the pipeline's experiment outputs as aligned
// ASCII tables, CSV, and terminal heat maps — the textual equivalents of
// the paper's figures.
package report

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"

	"jobgraph/internal/linalg"
)

// Table is a simple column-aligned text table.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; cells beyond the header count are dropped,
// missing cells render empty.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Headers))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// AddRowf appends a row of formatted values: each value is rendered
// with %v except floats, which use %.3f... use AddRow with Sprintf for
// full control.
func (t *Table) AddRowf(values ...interface{}) {
	cells := make([]string, len(values))
	for i, v := range values {
		switch x := v.(type) {
		case float64:
			cells[i] = fmt.Sprintf("%.3f", x)
		case float32:
			cells[i] = fmt.Sprintf("%.3f", x)
		default:
			cells[i] = fmt.Sprintf("%v", v)
		}
	}
	t.AddRow(cells...)
}

// NumRows returns the number of data rows.
func (t *Table) NumRows() int { return len(t.rows) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// Markdown renders the table as a GitHub-flavored markdown table.
func (t *Table) Markdown() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "**%s**\n\n", t.Title)
	}
	b.WriteString("| " + strings.Join(t.Headers, " | ") + " |\n")
	seps := make([]string, len(t.Headers))
	for i := range seps {
		seps[i] = "---"
	}
	b.WriteString("| " + strings.Join(seps, " | ") + " |\n")
	for _, row := range t.rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	return b.String()
}

// WriteCSV emits the table (headers + rows) as CSV.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Headers); err != nil {
		return fmt.Errorf("report: %w", err)
	}
	for _, row := range t.rows {
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("report: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// heatRamp maps [0,1] to a character ramp, dark to bright — the ASCII
// rendering of the paper's Figure 7 blue-to-red colormap.
const heatRamp = " .:-=+*#%@"

// Heatmap renders a matrix with entries in [0,1] as an ASCII density
// map, one character per cell. Values outside [0,1] are clamped.
func Heatmap(m *linalg.SymMatrix) string {
	var b strings.Builder
	for i := 0; i < m.N; i++ {
		for j := 0; j < m.N; j++ {
			v := m.At(i, j)
			if v < 0 {
				v = 0
			}
			if v > 1 {
				v = 1
			}
			idx := int(v * float64(len(heatRamp)-1))
			b.WriteByte(heatRamp[idx])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// WriteMatrixCSV emits a matrix as CSV with %.6f cells.
func WriteMatrixCSV(w io.Writer, m *linalg.SymMatrix) error {
	cw := csv.NewWriter(w)
	row := make([]string, m.N)
	for i := 0; i < m.N; i++ {
		for j := 0; j < m.N; j++ {
			row[j] = fmt.Sprintf("%.6f", m.At(i, j))
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("report: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// Bar renders a labeled horizontal bar chart row: label, value and a
// bar proportional to value/max, width characters at full scale.
func Bar(label string, value, max float64, width int) string {
	if width <= 0 {
		width = 40
	}
	n := 0
	if max > 0 {
		f := value / max
		if f > 1 {
			f = 1
		}
		if f > 0 {
			n = int(f * float64(width))
			if n == 0 {
				n = 1 // visible trace for tiny non-zero values
			}
		}
	}
	return fmt.Sprintf("%-20s %10.2f |%s", label, value, strings.Repeat("#", n))
}
