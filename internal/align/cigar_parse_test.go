package align

import (
	"reflect"
	"testing"
)

func TestParseCigarRoundTrip(t *testing.T) {
	cases := []Cigar{
		nil,
		{{OpMatch, 12}},
		{{OpMatch, 12}, {OpIns, 1}, {OpMatch, 3}},
		{{OpDel, 2}, {OpMatch, 1000}, {OpDel, 1}, {OpIns, 7}},
	}
	for _, c := range cases {
		got, err := ParseCigar(c.String())
		if err != nil {
			t.Fatalf("%q: %v", c.String(), err)
		}
		if len(c) == 0 && len(got) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, c) {
			t.Errorf("%q: round-trip gave %v", c.String(), got)
		}
	}
}

func TestParseCigarRejects(t *testing.T) {
	for _, s := range []string{
		"M",     // missing length
		"3",     // missing op
		"0M",    // zero run
		"01M",   // zero-padded run
		"-2M",   // negative run
		"3M4M",  // non-canonical adjacent runs
		"5S3M",  // clips are a SAM rendering, not a path op
		"3M 4I", // whitespace
		"4X",    // unsupported op
	} {
		if c, err := ParseCigar(s); err == nil {
			t.Errorf("%q: parsed to %v, want error", s, c)
		}
	}
}

// FuzzParseCigar: ParseCigar never panics, and any string it accepts is
// canonical — Cigar.String prints it back unchanged.
func FuzzParseCigar(f *testing.F) {
	for _, s := range []string{"", "12M", "3M1I4M2D", "01M", "0M", "3M4M", "5S3M", "99999999999999999999M", "-1M"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		c, err := ParseCigar(s)
		if err != nil {
			return
		}
		if got := c.String(); got != s {
			t.Fatalf("ParseCigar(%q) re-serialises as %q", s, got)
		}
	})
}
