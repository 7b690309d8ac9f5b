//go:build !amd64 || purego

package align

// useAVX2 is false off amd64 and under the purego tag: maxCell and
// fillTrace always run the scalar passes.
const useAVX2 = false

func (a *TileAligner) maxCellVector(rc, qc []byte) {
	panic("align: no vector score pass on this platform")
}

func (a *TileAligner) fillVector(rc, qc []byte, band int) (int64, int) {
	panic("align: no vector pointer fill on this platform")
}
