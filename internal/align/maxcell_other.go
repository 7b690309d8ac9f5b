//go:build !amd64 || purego

package align

// vectorLanes is 0 off amd64 and under the purego tag: maxCell and
// fillTrace always run the scalar passes.
const vectorLanes = 0

func (a *TileAligner) maxCellVector(rc, qc []byte) {
	panic("align: no vector score pass on this platform")
}

func (a *TileAligner) maxCellScreened(rc, qc []byte, minScore int) {
	panic("align: no vector score pass on this platform")
}

func (a *TileAligner) fillVector(rc, qc []byte, band, top int) (int64, int) {
	panic("align: no vector pointer fill on this platform")
}
