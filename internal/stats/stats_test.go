package stats

import (
	"strings"
	"testing"
)

func TestTableString(t *testing.T) {
	tb := NewTable("Title", "A", "Bee")
	tb.Add("1", "2")
	tb.Add("333", "4")
	out := tb.String()
	if !strings.HasPrefix(out, "Title\n") {
		t.Errorf("missing title:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("lines = %d, want 5:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[1], "A") || !strings.Contains(lines[1], "Bee") {
		t.Errorf("header wrong: %q", lines[1])
	}
	// Columns align: "333" widens column A to 3.
	if !strings.HasPrefix(lines[3], "1  ") {
		t.Errorf("row not padded: %q", lines[3])
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("x", "a", "b")
	tb.Add("1", "2")
	if got, want := tb.CSV(), "a,b\n1,2\n"; got != want {
		t.Errorf("CSV = %q, want %q", got, want)
	}
}

func TestAddWrongArity(t *testing.T) {
	tb := NewTable("x", "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tb.Add("only-one")
}

func TestFormatters(t *testing.T) {
	if F(3.14159, 2) != "3.14" {
		t.Error("F")
	}
	if I(42) != "42" {
		t.Error("I int")
	}
	if I(int64(7)) != "7" {
		t.Error("I int64")
	}
	if KB(2048) != "2.0" {
		t.Error("KB")
	}
	if MB(3<<20) != "3.00" {
		t.Error("MB")
	}
}

func TestNoHeaderTable(t *testing.T) {
	tb := &Table{Title: "t"}
	tb.Add("x", "y", "z")
	out := tb.String()
	if !strings.Contains(out, "x  y  z") {
		t.Errorf("free-form row lost: %q", out)
	}
}

func TestSpark(t *testing.T) {
	if Spark(nil, 10) != "" {
		t.Error("empty series should render empty")
	}
	s := Spark([]int64{0, 1, 2, 4, 8, 8, 4, 0}, 8)
	r := []rune(s)
	if len(r) != 8 {
		t.Fatalf("width = %d, want 8", len(r))
	}
	if r[0] != '▁' {
		t.Errorf("zero should be the lowest glyph, got %q", r[0])
	}
	if r[4] != '█' {
		t.Errorf("peak should be the highest glyph, got %q", r[4])
	}
	// Downsampling: longer input, narrow width.
	s2 := Spark([]int64{1, 1, 1, 9, 1, 1}, 3)
	if len([]rune(s2)) != 3 {
		t.Errorf("downsampled width wrong: %q", s2)
	}
}
