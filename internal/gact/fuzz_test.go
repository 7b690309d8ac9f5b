package gact

import (
	"testing"

	"darwin/internal/align"
	"darwin/internal/dna"
)

// fuzzSeq maps arbitrary fuzz bytes onto ACGTN through the base codes.
func fuzzSeq(b []byte) dna.Seq {
	s := make(dna.Seq, len(b))
	for i, c := range b {
		s[i] = "ACGTN"[dna.Code(c)]
	}
	return s
}

// fuzzRelated reads edits as an edit script against ref, so the fuzzer
// can reach related pairs — accepted first tiles, extension tiles, the
// bitvector tier — without having to discover a long common substring
// byte by byte: seven edit bytes in eight copy the next reference base;
// the rest substitute it, insert a base before it, or skip it.
func fuzzRelated(ref dna.Seq, edits []byte) dna.Seq {
	out := make(dna.Seq, 0, len(edits))
	i := 0
	for _, e := range edits {
		if i >= len(ref) {
			break
		}
		base := "ACGT"[e>>6]
		switch {
		case e&7 != 0:
			out = append(out, ref[i])
			i++
		case e&24 == 0:
			out = append(out, base)
			i++
		case e&24 == 8:
			out = append(out, base)
		default:
			i++
		}
	}
	return out
}

// fuzzConfig decodes six fuzz bytes into a valid Config: tile size and
// overlap, a first-tile size that is absent, or just above the overlap,
// or larger than the tile; an h_tile threshold that is absent, small,
// or above any score a tile can reach; a scoring with open == ext (zero
// gap cost included) or open > ext; and the kernel tier.
func fuzzConfig(tile, overlap, first, hTile, scoring, mode uint8) Config {
	cfg := Config{T: 8 + int(tile)%120}
	cfg.O = int(overlap) % cfg.T
	if first%3 != 0 {
		cfg.FirstTileT = cfg.O + 1 + int(first)%150
	}
	switch hTile % 4 {
	case 1, 2:
		cfg.MinFirstTile = int(hTile >> 2)
	case 3:
		cfg.MinFirstTile = 1 << 20
	}
	cfg.Scoring = align.Simple(1+int(scoring&3), 1+int(scoring>>2&3), int(scoring>>4&3)%3)
	cfg.Scoring.GapOpen += int(scoring >> 6)
	cfg.Kernel = align.KernelMode(mode % 3)
	return cfg
}

// FuzzEngineExtend is the differential safety net under the Engine's
// fast paths (score-pass rejection, banded refills, the bitvector
// tier): on any input, Engine.Extend returns exactly what the free
// function Extend — reference AlignTile, no reuse, no tiers — returns:
// the same error or none, the same accept/reject decision, the same
// Result (coordinates, CIGAR, score) and the same Stats (Tiles, Cells,
// FirstTileScore), for rejected candidates too. The score Extend
// carries across tile junctions must be Result.Rescore's (the corpus
// holds affine gaps longer than T − O, which cross one). Each input
// runs twice through one engine, so state a candidate leaves behind
// shows up.
func FuzzEngineExtend(f *testing.F) {
	ref := []byte("ACGTTGCAAGGCTTACCGATAGGCTAACGTTTGACCATGGACTTGACCGTAAGGCTTAGCATCGGATCAAGTCCGATTGACGGTACCATGACTGGATCA")
	same := make([]byte, len(ref))
	for i := range same {
		same[i] = 1 // copy every base
	}
	f.Add(ref, same, false, uint16(0), uint16(0), uint8(24), uint8(8), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(ref, []byte("TTTTTTTTGGGGGGGGCCCCCCCCAAAAAAAATTTTGGGGCCCCAAAA"), true, uint16(10), uint16(3), uint8(24), uint8(8), uint8(4), uint8(41), uint8(0), uint8(1))
	f.Add([]byte("AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"), []byte("AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"), true, uint16(5), uint16(2), uint8(9), uint8(3), uint8(1), uint8(3), uint8(0x55), uint8(2))
	f.Fuzz(func(t *testing.T, refB, queryB []byte, unrelated bool, iSeed, jSeed uint16, tile, overlap, first, hTile, scoring, mode uint8) {
		const maxLen = 1500 // keeps the reference Extend, which allocates per tile, affordable
		if len(refB) > maxLen || len(queryB) > maxLen {
			t.Skip()
		}
		R := fuzzSeq(refB)
		Q := fuzzSeq(queryB)
		if !unrelated {
			Q = fuzzRelated(R, queryB)
		}
		cfg := fuzzConfig(tile, overlap, first, hTile, scoring, mode)
		engine, err := NewEngine(&cfg)
		if err != nil {
			t.Fatalf("fuzzConfig built an invalid config %+v: %v", cfg, err)
		}
		wantRes, wantStats, wantErr := Extend(R, Q, int(iSeed), int(jSeed), &cfg)
		for pass := 0; pass < 2; pass++ {
			res, stats, err := engine.Extend(R, Q, int(iSeed), int(jSeed))
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("pass %d: engine error %v, reference error %v", pass, err, wantErr)
			}
			if err != nil {
				return
			}
			if res != nil {
				if want := res.Rescore(R, Q, &cfg.Scoring); res.Score != want {
					t.Fatalf("pass %d: carried score %d, Rescore %d, path %v", pass, res.Score, want, res.Cigar)
				}
			}
			extendEqual(t, "engine vs reference", res, stats, wantRes, wantStats)
		}
	})
}
