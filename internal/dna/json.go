package dna

import (
	"encoding/json"
	"fmt"
)

// MarshalJSON encodes the sequence as a JSON string of bases rather
// than the base64 default for []byte, so wire formats (the darwind
// service, run reports) stay human-readable and greppable. A sequence
// of bytes json.Marshal writes verbatim — every sequence of bases —
// is quoted as it is; any other takes json.Marshal's escapes.
func (s Seq) MarshalJSON() ([]byte, error) {
	for _, b := range s {
		if !jsonVerbatim(b) {
			return json.Marshal(string(s))
		}
	}
	out := make([]byte, 0, len(s)+2)
	out = append(out, '"')
	out = append(out, s...)
	return append(out, '"'), nil
}

// UnmarshalJSON decodes a JSON string into a normalized sequence
// (upper-case ACGTN, like NewSeq). A quoted token of printable ASCII
// with no escape — what MarshalJSON writes for a sequence of bases —
// is normalized directly; any other goes through json.Unmarshal.
func (s *Seq) UnmarshalJSON(data []byte) error {
	if n := len(data); n >= 2 && data[0] == '"' && data[n-1] == '"' {
		body := data[1 : n-1]
		plain := true
		for _, b := range body {
			if b < 0x20 || b >= 0x7f || b == '"' || b == '\\' {
				plain = false
				break
			}
		}
		if plain {
			out := make(Seq, len(body))
			for i, b := range body {
				out[i] = Base(Code(b))
			}
			*s = out
			return nil
		}
	}
	var str string
	if err := json.Unmarshal(data, &str); err != nil {
		return fmt.Errorf("dna: sequence must be a JSON string: %w", err)
	}
	*s = NewSeq(str)
	return nil
}

// jsonVerbatim reports whether json.Marshal writes byte b of a string
// as itself: printable ASCII other than the quote, the backslash and
// the HTML-escaped <, > and &.
func jsonVerbatim(b byte) bool {
	return b >= 0x20 && b < 0x7f && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
}
