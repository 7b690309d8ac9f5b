package align

import (
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

// TestStepLayout pins a Step to four bytes, the op in its low two bits
// numbered as BAM numbers M, I and D, and the length above them: the
// kept paths of a batch are most of a mapping run's heap, so a field
// added to Step quadruples them again.
func TestStepLayout(t *testing.T) {
	if n := unsafe.Sizeof(Step(0)); n != 4 {
		t.Fatalf("Step is %d bytes, want 4", n)
	}
	for code, op := range []Op{OpMatch, OpIns, OpDel} {
		for _, n := range []int{0, 1, 320, MaxRun} {
			s := NewStep(op, n)
			if s != Step(n<<2|code) || s.Op() != op || s.Len() != n {
				t.Errorf("NewStep(%c, %d) = %#x: op %c, len %d", op, n, uint32(s), s.Op(), s.Len())
			}
		}
	}
}

// TestStepMaxRun drives every run merge (Grow and the appendRun and
// Concat built on it) to exactly MaxRun, then one past it, which must
// panic naming the cap: a longer run cannot be split into two steps of
// one op without breaking Check's canonical form.
func TestStepMaxRun(t *testing.T) {
	if got := NewStep(OpMatch, MaxRun-5).Grow(5); got.Len() != MaxRun || got.Op() != OpMatch {
		t.Errorf("Grow to MaxRun gave %d %c", got.Len(), got.Op())
	}
	if got := (Cigar{NewStep(OpDel, MaxRun-1)}).appendRun(OpDel, 1); len(got) != 1 || got[0].Len() != MaxRun {
		t.Errorf("appendRun to MaxRun gave %v", got)
	}
	if got := (Cigar{NewStep(OpIns, 1)}).Concat(Cigar{NewStep(OpIns, MaxRun-1)}); len(got) != 1 || got[0].Len() != MaxRun {
		t.Errorf("Concat to MaxRun gave %v", got)
	}
	for name, f := range map[string]func(){
		"Grow":      func() { NewStep(OpMatch, MaxRun).Grow(1) },
		"appendRun": func() { Cigar{NewStep(OpDel, MaxRun)}.appendRun(OpDel, 1) },
		"Concat":    func() { Cigar{NewStep(OpIns, 2)}.Concat(Cigar{NewStep(OpIns, MaxRun-1)}) },
		"NewStep":   func() { NewStep(OpMatch, MaxRun+1) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "MaxRun") {
					t.Errorf("past MaxRun: recovered %q, want a panic naming MaxRun", msg)
				}
			}()
			f()
		})
	}
}

func TestParseCigarRoundTrip(t *testing.T) {
	cases := []Cigar{
		nil,
		{NewStep(OpMatch, 12)},
		{NewStep(OpMatch, 12), NewStep(OpIns, 1), NewStep(OpMatch, 3)},
		{NewStep(OpDel, 2), NewStep(OpMatch, 1000), NewStep(OpDel, 1), NewStep(OpIns, 7)},
		{NewStep(OpIns, MaxRun), NewStep(OpMatch, 1), NewStep(OpDel, MaxRun)},
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
		"M",                    // missing length
		"3",                    // missing op
		"0M",                   // zero run
		"01M",                  // zero-padded run
		"-2M",                  // negative run
		"3M4M",                 // non-canonical adjacent runs
		"5S3M",                 // clips are a SAM rendering, not a path op
		"3M 4I",                // whitespace
		"4X",                   // unsupported op
		"1073741824M",          // MaxRun + 1
		"9223372036854775808M", // past int64
	} {
		if c, err := ParseCigar(s); err == nil {
			t.Errorf("%q: parsed to %v, want error", s, c)
		}
	}
}

// FuzzParseCigar: ParseCigar never panics, and any string it accepts is
// canonical — Cigar.String prints it back unchanged.
func FuzzParseCigar(f *testing.F) {
	for _, s := range []string{"", "12M", "3M1I4M2D", "01M", "0M", "3M4M", "5S3M", "99999999999999999999M", "-1M", "1073741823M", "1073741824M"} {
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
