//go:build !amd64 || purego

package align

import "darwin/internal/dna"

// vectorLanes is 0 off amd64 and under the purego tag: the score pass
// and the pointer fill always run the scalar passes, and engines take
// no first-tile batch.
const vectorLanes = 0

func (a *TileAligner) vectorTile(rTile, qTile dna.Seq, reversed bool) {
	panic("align: no vector passes on this platform")
}

func (a *TileAligner) trimVector(n, n2 int) {
	panic("align: no vector passes on this platform")
}

func (a *TileAligner) maxCellVector(n, m int) {
	panic("align: no vector score pass on this platform")
}

func (a *TileAligner) maxCellScreened(n, m int) {
	panic("align: no vector score pass on this platform")
}

func (a *TileAligner) fillVector(n, m, band, top int) (int64, int) {
	panic("align: no vector pointer fill on this platform")
}

func firstTileBatch(r, q []byte, h []int8, n, m int, sub *[16]byte, gap int32, best *[BatchLanes]int8) {
	panic("align: no first-tile batch on this platform")
}

func laneCodes(buf []byte, code *[16]byte) {
	panic("align: no first-tile batch on this platform")
}
