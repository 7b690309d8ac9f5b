package dna

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"
)

// TestSeqJSONMatchesEncodingJSON holds Seq's JSON methods, which quote
// and normalize plain sequences directly, to the encoding/json path
// they bypass: json.Marshal of the sequence as a string, and
// json.Unmarshal into a string then NewSeq. Over escapes, \u forms,
// control bytes, <, > and &, valid and invalid UTF-8, lower case,
// malformed tokens and random bytes, the wire bytes, the decoded
// sequence and whether an error is returned must agree, alone and as a
// struct field.
func TestSeqJSONMatchesEncodingJSON(t *testing.T) {
	seqs := []string{
		"", "ACGTN", "acgtn", "ACGTRYKMSWN", "ACG<T>A&C", `AC"GT`, `AC\GT`,
		"AC\x00\x01\x1fGT", "AC\x7fGT", "ACéGT", "AC GT ", "AC\xffGT", "AC\xc3GT",
		"ACGT\t\n\r", "日本語",
	}
	tokens := []string{
		`""`, `"ACGT"`, `"acgtn"`, `"ACGT"`, `"AC\nGT"`, `"AC\\GT"`, `"AC\"GT"`,
		`"é\ud800"`, "\"AC\x01GT\"", "\"AC\x7fGT\"", "\"AC\xffGT\"", "\"ACéGT\"",
		`"AC<>&GT"`, `null`, `123`, `["A"]`, `"ACGT`, `ACGT"`, `"`, ` "ACGT" `,
		`"AC"GT"`, `"AC\qGT"`, `"\u12"`, `{}`, ``,
	}
	rng := rand.New(rand.NewSource(3))
	for range 500 {
		b := make([]byte, rng.Intn(20))
		for i := range b {
			if rng.Intn(2) == 0 {
				b[i] = "ACGTNacgtn"[rng.Intn(10)]
			} else {
				b[i] = byte(rng.Intn(256))
			}
		}
		seqs = append(seqs, string(b))
		tokens = append(tokens, `"`+string(b)+`"`)
	}
	for _, s := range seqs {
		got, err := Seq(s).MarshalJSON()
		want, wantErr := json.Marshal(s)
		if !bytes.Equal(got, want) || (err != nil) != (wantErr != nil) {
			t.Errorf("MarshalJSON(%q) = %q, %v; json.Marshal %q, %v", s, got, err, want, wantErr)
		}
		type rec struct{ S Seq }
		gotRec, err := json.Marshal(rec{Seq(s)})
		wantRec, _ := json.Marshal(struct{ S string }{s})
		if err != nil || !bytes.Equal(gotRec, wantRec) {
			t.Errorf("field %q: %q, %v; want %q", s, gotRec, err, wantRec)
		}
		tokens = append(tokens, string(want))
	}
	for _, tok := range tokens {
		var got Seq
		err := got.UnmarshalJSON([]byte(tok))
		var str string
		wantErr := json.Unmarshal([]byte(tok), &str)
		var want Seq
		if wantErr == nil {
			want = NewSeq(str)
		}
		if (err != nil) != (wantErr != nil) || !reflect.DeepEqual(got, want) {
			t.Errorf("UnmarshalJSON(%q) = %q, %v; encoding/json %q, %v", tok, got, err, want, wantErr)
		}
		var gotRec struct{ S Seq }
		err = json.Unmarshal([]byte(`{"S":`+tok+`}`), &gotRec)
		var wantRec struct{ S string }
		wantErr = json.Unmarshal([]byte(`{"S":`+tok+`}`), &wantRec)
		if (err != nil) != (wantErr != nil) || (err == nil && !bytes.Equal(gotRec.S, NewSeq(wantRec.S))) {
			t.Errorf("field %q: %q, %v; encoding/json %q, %v", tok, gotRec.S, err, wantRec.S, wantErr)
		}
	}
}
