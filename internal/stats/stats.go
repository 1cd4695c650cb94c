// Package stats provides small table/series formatting helpers used by the
// experiment drivers to print paper-style tables and by EXPERIMENTS.md
// generation.
package stats

import (
	"fmt"
	"strings"
)

// Table is a titled grid of cells rendered as aligned ASCII or CSV.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, Header: header}
}

// Add appends a row. It panics if the cell count does not match the
// header.
func (t *Table) Add(cells ...string) {
	if len(t.Header) != 0 && len(cells) != len(t.Header) {
		panic(fmt.Sprintf("stats: row has %d cells, header has %d", len(cells), len(t.Header)))
	}
	t.Rows = append(t.Rows, cells)
}

// String renders the table as aligned ASCII.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i >= len(widths) {
				widths = append(widths, 0)
			}
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
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	if len(t.Header) > 0 {
		line(t.Header)
		var rule []string
		for _, w := range widths {
			rule = append(rule, strings.Repeat("-", w))
		}
		line(rule)
	}
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (no quoting; cells must
// not contain commas).
func (t *Table) CSV() string {
	var b strings.Builder
	if len(t.Header) > 0 {
		b.WriteString(strings.Join(t.Header, ","))
		b.WriteByte('\n')
	}
	for _, row := range t.Rows {
		b.WriteString(strings.Join(row, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

// F formats a float with the given number of decimals.
func F(v float64, decimals int) string {
	return fmt.Sprintf("%.*f", decimals, v)
}

// I formats an integer.
func I[T ~int | ~int64](v T) string { return fmt.Sprintf("%d", int64(v)) }

// KB formats a byte count as kilobytes with one decimal.
func KB(bytes int64) string { return fmt.Sprintf("%.1f", float64(bytes)/1024) }

// MB formats a byte count as megabytes with two decimals.
func MB(bytes int64) string { return fmt.Sprintf("%.2f", float64(bytes)/(1<<20)) }

// Ns formats a nanosecond count as a human-readable duration.
func Ns(ns int64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", float64(ns)/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", float64(ns)/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.2fµs", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%dns", ns)
	}
}

// Spark renders values as a unicode sparkline of the given width,
// downsampling by max within each bucket and scaling to the series peak.
func Spark(vals []int64, width int) string {
	if len(vals) == 0 || width < 1 {
		return ""
	}
	ramp := []rune("▁▂▃▄▅▆▇█")
	if width > len(vals) {
		width = len(vals)
	}
	var peak int64 = 1
	for _, v := range vals {
		if v > peak {
			peak = v
		}
	}
	out := make([]rune, width)
	for i := 0; i < width; i++ {
		lo := i * len(vals) / width
		hi := (i + 1) * len(vals) / width
		if hi <= lo {
			hi = lo + 1
		}
		var mx int64
		for _, v := range vals[lo:hi] {
			if v > mx {
				mx = v
			}
		}
		idx := int(mx * int64(len(ramp)-1) / peak)
		out[i] = ramp[idx]
	}
	return string(out)
}
