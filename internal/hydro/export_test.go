package hydro

// Unexported entry points and oracles for the external tests in this
// directory, which may import internal/terrain for its rasters.
var (
	FillTiles           = fillTiles
	RefFillDepressions  = refFillDepressions
	RefD8FlowDirections = refD8FlowDirections
	SameBits            = sameBits
)
