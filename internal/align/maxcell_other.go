//go:build !amd64 || purego

package align

// useAVX2 is false off amd64 and under the purego tag: maxCell always
// runs the scalar pass.
const useAVX2 = false

func (a *TileAligner) maxCellVector(rc, qc []byte) {
	panic("align: no vector score pass on this platform")
}
