package report

import (
	"bytes"
	"strings"
	"testing"

	"jobgraph/internal/linalg"
)

func TestTableRendering(t *testing.T) {
	tbl := NewTable("Job sizes", "size", "count", "frac")
	tbl.AddRow("2", "120", "0.45")
	tbl.AddRowf(3, 70, 0.261)
	out := tbl.String()
	if !strings.Contains(out, "Job sizes") {
		t.Fatalf("missing title:\n%s", out)
	}
	if !strings.Contains(out, "size") || !strings.Contains(out, "0.261") {
		t.Fatalf("missing cells:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// title + header + separator + 2 rows
	if len(lines) != 5 {
		t.Fatalf("line count = %d:\n%s", len(lines), out)
	}
	// Columns align: header and first data row share column start.
	if tbl.NumRows() != 2 {
		t.Fatalf("rows = %d", tbl.NumRows())
	}
}

func TestTableMissingAndExtraCells(t *testing.T) {
	tbl := NewTable("", "a", "b")
	tbl.AddRow("1")           // missing cell
	tbl.AddRow("1", "2", "3") // extra cell dropped
	out := tbl.String()
	if strings.Contains(out, "3") {
		t.Fatalf("extra cell kept:\n%s", out)
	}
}

func TestTableMarkdown(t *testing.T) {
	tbl := NewTable("T", "x", "y")
	tbl.AddRow("1", "2")
	md := tbl.Markdown()
	if !strings.Contains(md, "| x | y |") || !strings.Contains(md, "| --- | --- |") {
		t.Fatalf("markdown:\n%s", md)
	}
	if !strings.Contains(md, "**T**") {
		t.Fatalf("missing title:\n%s", md)
	}
}

func TestTableCSV(t *testing.T) {
	tbl := NewTable("T", "x", "y")
	tbl.AddRow("1", "a,b") // comma needing quoting
	var buf bytes.Buffer
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	if !strings.Contains(got, "x,y") || !strings.Contains(got, `"a,b"`) {
		t.Fatalf("csv:\n%s", got)
	}
}

func TestHeatmap(t *testing.T) {
	// Rows [0 1] and [1 2]: a zero cell, a max cell, a clamped cell.
	out := Heatmap(&linalg.SymMatrix{N: 2, Data: []float64{0, 1, 2}})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 || len(lines[0]) != 2 {
		t.Fatalf("heatmap shape:\n%q", out)
	}
	if lines[0][0] != ' ' {
		t.Fatalf("zero cell should be blank, got %q", lines[0][0])
	}
	if lines[0][1] != '@' || lines[1][1] != '@' {
		t.Fatalf("max and clamped cells should be '@': %q", out)
	}
}

func TestWriteMatrixCSV(t *testing.T) {
	m := &linalg.SymMatrix{N: 2, Data: []float64{1, 0.5, 1}}
	var buf bytes.Buffer
	if err := WriteMatrixCSV(&buf, m); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(buf.String()); got != "1.000000,0.500000\n0.500000,1.000000" {
		t.Fatalf("csv = %q", got)
	}
}

func TestBar(t *testing.T) {
	out := Bar("chain", 58, 100, 10)
	if !strings.Contains(out, "chain") || !strings.Contains(out, "#####") {
		t.Fatalf("bar: %q", out)
	}
	if strings.Count(out, "#") != 5 {
		t.Fatalf("bar length: %q", out)
	}
	if strings.Count(Bar("x", 0, 100, 10), "#") != 0 {
		t.Fatal("zero bar should be empty")
	}
	if strings.Count(Bar("x", 1, 1000, 10), "#") != 1 {
		t.Fatal("tiny non-zero bar should show one mark")
	}
	if strings.Count(Bar("x", 5, 0, 10), "#") != 0 {
		t.Fatal("zero max should render empty bar")
	}
}
