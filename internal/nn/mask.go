package nn

import (
	"sync/atomic"

	"drainnet/internal/tensor"
)

// Spatial masking (the LASNet-style dynamic-compute kernel): the input
// activation energy of a conv layer gates which output-row bands pay for
// im2col lowering and the packed GEMM. Sweep traffic is dominated by
// background tiles whose feature maps are spatially flat; a flat band's
// conv output is approximated by the layer's response to the per-channel
// mean input (the "flat response"), which costs O(OutC·InC) instead of
// O(OutC·InC·KH·KW·band·OW). The energy metric is the mean absolute
// deviation from the per-channel mean, so a uniform (but non-zero)
// background still masks. Padding zeros truncate the receptive field,
// so the pixels of a masked band that touch padding — the horizontal
// edge columns and the vertically padded rows — get a partial flat
// response instead: the same constant-input math restricted to the
// in-bounds kernel taps, looked up from a per-(out,in)-channel 2D
// prefix-sum table over the kernel. On a truly flat input every fill
// is exact; on near-flat inputs the edge pixels carry the same
// approximation error class as the interior.

// Default mask spec used when SetMask leaves a field zero.
const (
	maskDefaultBand   = 4
	maskDefaultThresh = 0.02
)

// MaskStats accumulates how many output-row bands the masked kernel
// skipped, across every replica sharing the layer. Safe for concurrent
// use.
type MaskStats struct {
	masked atomic.Int64
	total  atomic.Int64
}

// Add records one inference pass's band counts.
func (s *MaskStats) Add(masked, total int64) {
	if s == nil {
		return
	}
	s.masked.Add(masked)
	s.total.Add(total)
}

// Counts returns the cumulative (masked, total) band counts.
func (s *MaskStats) Counts() (masked, total int64) {
	return s.masked.Load(), s.total.Load()
}

// Rate returns the cumulative fraction of bands skipped (0 when no
// bands have been observed).
func (s *MaskStats) Rate() float64 {
	m, t := s.Counts()
	if t == 0 {
		return 0
	}
	return float64(m) / float64(t)
}

// Reset clears the counters (calibration reuses one stats object).
func (s *MaskStats) Reset() {
	s.masked.Store(0)
	s.total.Store(0)
}

// ConvMask configures the masked kernel's spatial gating.
type ConvMask struct {
	// BandRows is the mask granularity in output rows (default 4).
	BandRows int
	// Threshold is the mean-abs-deviation-per-cell energy below which a
	// band is skipped (default 0.02; activations are O(0.1–1) here).
	Threshold float32
	// Stats receives cumulative skip counters (optional).
	Stats *MaskStats
}

// SetMask configures the spatial mask spec, making the layer eligible
// for KernelMasked. It does not change the selected kernels; pair with
// SetKernels(KernelMasked, KernelMasked) to serve masked.
func (c *Conv2D) SetMask(m ConvMask) {
	if m.BandRows <= 0 {
		m.BandRows = maskDefaultBand
	}
	if m.Threshold <= 0 {
		m.Threshold = maskDefaultThresh
	}
	c.maskBand = m.BandRows
	c.maskThresh = m.Threshold
	c.maskStats = m.Stats
}

// Mask reports the configured mask spec (zero value when unset).
func (c *Conv2D) Mask() ConvMask {
	return ConvMask{BandRows: c.maskBand, Threshold: c.maskThresh, Stats: c.maskStats}
}

// maskEnergy computes, for one c×h×w sample, the per-channel means mu
// (length c) and per-input-row absolute-deviation sums energy (length
// h): energy[iy] = Σ_ch Σ_ix |x[ch,iy,ix] − mu[ch]|.
func maskEnergy(x []float32, c, h, w int, mu, energy []float32) {
	plane := h * w
	for ch := 0; ch < c; ch++ {
		var s float64
		for _, v := range x[ch*plane : (ch+1)*plane] {
			s += float64(v)
		}
		mu[ch] = float32(s / float64(plane))
	}
	for iy := range energy[:h] {
		energy[iy] = 0
	}
	for ch := 0; ch < c; ch++ {
		m := mu[ch]
		base := ch * plane
		for iy := 0; iy < h; iy++ {
			var s float32
			for _, v := range x[base+iy*w : base+(iy+1)*w] {
				d := v - m
				if d < 0 {
					d = -d
				}
				s += d
			}
			energy[iy] += s
		}
	}
}

// flatResponse computes the conv's output on a spatially constant input
// holding the per-channel means: flat[o] = bias[o] + Σ_c wsum[o,c]·mu[c].
func flatResponse(flat, mu, wsum, bias []float32, outC, inC int) {
	for o := 0; o < outC; o++ {
		s := bias[o]
		row := wsum[o*inC : (o+1)*inC]
		for ci, wv := range row {
			s += wv * mu[ci]
		}
		flat[o] = s
	}
}

// maskEdgeCols reports which output columns see horizontal zero-padding:
// [0, edgeL) on the left and [edgeR0, ow) on the right. The flat-fill
// approximation does not hold there, so masked bands compute those
// columns exactly with the direct per-pixel kernel.
func maskEdgeCols(g tensor.ConvGeom, w, ow int) (edgeL, edgeR0 int) {
	for edgeL < ow && edgeL*g.StrideW-g.PadW < 0 {
		edgeL++
	}
	edgeR0 = ow
	for edgeR0 > 0 && (edgeR0-1)*g.StrideW-g.PadW+g.KW > w {
		edgeR0--
	}
	return edgeL, edgeR0
}

// maskClipH returns the in-bounds kernel-row range [khLo, khHi) for
// output row oy: padding clips the taps outside the input.
func maskClipH(g tensor.ConvGeom, h, oy int) (khLo, khHi int) {
	khLo, khHi = 0, g.KH
	if s := oy*g.StrideH - g.PadH; s < 0 {
		khLo = -s
	}
	if s := oy*g.StrideH - g.PadH + g.KH; s > h {
		khHi = g.KH - (s - h)
	}
	return khLo, khHi
}

// maskClipW is maskClipH for output columns.
func maskClipW(g tensor.ConvGeom, w, ox int) (kwLo, kwHi int) {
	kwLo, kwHi = 0, g.KW
	if s := ox*g.StrideW - g.PadW; s < 0 {
		kwLo = -s
	}
	if s := ox*g.StrideW - g.PadW + g.KW; s > w {
		kwHi = g.KW - (s - w)
	}
	return kwLo, kwHi
}

// flatPartial computes the conv's constant-input response restricted to
// the kernel-tap rectangle [khLo,khHi)×[kwLo,kwHi) — the flat response
// a pixel sees when padding clips its receptive field by that much.
// Each (out,in) pair is one O(1) rectangle lookup in the wpre
// prefix-sum table ((KH+1)×(KW+1) row-major blocks per pair).
func flatPartial(dst, mu, wpre, bias []float32, outC, inC int, g tensor.ConvGeom,
	khLo, khHi, kwLo, kwHi int, relu bool) {
	kw1 := g.KW + 1
	blk := (g.KH + 1) * kw1
	for o := 0; o < outC; o++ {
		s := bias[o]
		base := o * inC * blk
		for ci := 0; ci < inC; ci++ {
			p := wpre[base+ci*blk:]
			r := p[khHi*kw1+kwHi] - p[khLo*kw1+kwHi] - p[khHi*kw1+kwLo] + p[khLo*kw1+kwLo]
			s += mu[ci] * r
		}
		if relu && !(s > 0) {
			s = 0
		}
		dst[o] = s
	}
}

// maskBandRange maps output-row band [oy0, oy1) to its (clamped)
// input-row receptive field.
func maskBandRange(oy0, oy1 int, g tensor.ConvGeom, h int) (iy0, iy1 int) {
	iy0 = oy0*g.StrideH - g.PadH
	iy1 = (oy1-1)*g.StrideH - g.PadH + g.KH
	if iy0 < 0 {
		iy0 = 0
	}
	if iy1 > h {
		iy1 = h
	}
	return iy0, iy1
}

// maskedBandEdges overwrites the padding-affected pixels of a
// flat-filled band with their partial flat responses: the horizontal
// edge columns and the vertically padded rows see a clipped receptive
// field, so the full-kernel flat value is wrong there. Each distinct
// clip shape costs one O(outC·inC) flatPartial; the handful of corner
// pixels (padded row × edge column) pay one each. tmp is outC scratch
// floats.
func maskedBandEdges(out, mu, tmp, wpre, bias []float32, inC, outC, h, w, ohw, ow int,
	g tensor.ConvGeom, oy0, oy1, edgeL, edgeR0 int, relu bool) {
	if edgeR0 < edgeL {
		edgeR0 = edgeL
	}
	edges := [2][2]int{{0, edgeL}, {edgeR0, ow}}
	// Edge columns down the band's fully in-bounds rows: one partial
	// response per column.
	for _, er := range edges {
		for ox := er[0]; ox < er[1]; ox++ {
			kwLo, kwHi := maskClipW(g, w, ox)
			flatPartial(tmp, mu, wpre, bias, outC, inC, g, 0, g.KH, kwLo, kwHi, relu)
			for oy := oy0; oy < oy1; oy++ {
				if khLo, khHi := maskClipH(g, h, oy); khLo != 0 || khHi != g.KH {
					continue
				}
				for o := 0; o < outC; o++ {
					out[o*ohw+oy*ow+ox] = tmp[o]
				}
			}
		}
	}
	// Vertically padded rows: interior columns share one partial
	// response; each edge-column corner pixel gets its doubly clipped
	// own.
	for oy := oy0; oy < oy1; oy++ {
		khLo, khHi := maskClipH(g, h, oy)
		if khLo == 0 && khHi == g.KH {
			continue
		}
		flatPartial(tmp, mu, wpre, bias, outC, inC, g, khLo, khHi, 0, g.KW, relu)
		for o := 0; o < outC; o++ {
			row := out[o*ohw+oy*ow:]
			v := tmp[o]
			for ox := edgeL; ox < edgeR0; ox++ {
				row[ox] = v
			}
		}
		for _, er := range edges {
			for ox := er[0]; ox < er[1]; ox++ {
				kwLo, kwHi := maskClipW(g, w, ox)
				flatPartial(tmp, mu, wpre, bias, outC, inC, g, khLo, khHi, kwLo, kwHi, relu)
				for o := 0; o < outC; o++ {
					out[o*ohw+oy*ow+ox] = tmp[o]
				}
			}
		}
	}
}

// inferMasked is the masked inference forward, one route at every batch
// size: sample by sample, a serial O(c·h·w) energy pass, then the
// sample's output-row bands across the pool. Arena scratch is one
// sample's whatever the batch: the cols stripe, mu/energy/flat and the
// bands' edge scratch.
func (c *Conv2D) inferMasked(out, x *tensor.Tensor, a *tensor.Arena, relu bool, n, ch, h, w, oh, ow int) {
	c.ensureKernel(KernelMasked)
	band := c.maskBand
	if band <= 0 {
		band = maskDefaultBand
	}
	thresh := c.maskThresh
	if thresh <= 0 {
		thresh = maskDefaultThresh
	}
	kdim := c.InC * c.Geom.KH * c.Geom.KW
	ohw := oh * ow
	bias := c.Bias.Value.Data()

	nb := (oh + band - 1) / band
	cols := a.Get(kdim, ohw)
	scratch := a.Get(ch + h + c.OutC)
	tmp := a.Get(nb, c.OutC)
	mu := scratch.Data()[:ch]
	energy := scratch.Data()[ch : ch+h]
	flat := scratch.Data()[ch+h : ch+h+c.OutC]
	t := &c.maskedBands
	t.cols = cols.Data()
	t.mu, t.energy, t.flat, t.tmp, t.wpre = mu, energy, flat, tmp.Data(), c.wpre
	t.c, t.h, t.w, t.oh, t.ow, t.outC = ch, h, w, oh, ow, c.OutC
	t.geom, t.packed = c.Geom, c.packed
	t.bias, t.relu = bias, relu
	t.band, t.thresh = band, thresh
	t.stats = c.maskStats
	in, outStride := ch*h*w, c.OutC*ohw
	for i := 0; i < n; i++ {
		t.x = x.Data()[i*in : (i+1)*in]
		t.out = out.Data()[i*outStride : (i+1)*outStride]
		maskEnergy(t.x, ch, h, w, mu, energy)
		flatResponse(flat, mu, c.wsum, bias, c.OutC, c.InC)
		tensor.ParallelRange(nb, 1, t)
	}
}

// maskedBandTask runs output-row bands [lo,hi) of one sample whose
// energy pass already ran. Bands write disjoint column ranges of the
// shared cols and out buffers, so they fan out race-free.
type maskedBandTask struct {
	out, x, cols                []float32
	mu, energy, flat, tmp, wpre []float32
	c, h, w, oh, ow, outC       int
	geom                        tensor.ConvGeom
	packed                      *tensor.Packed
	bias                        []float32
	relu                        bool
	band                        int
	thresh                      float32
	stats                       *MaskStats
}

func (t *maskedBandTask) RunRange(lo, hi int) {
	ohw := t.oh * t.ow
	panels := t.packed.Panels()
	cellNorm := float32(t.c * t.w)
	edgeL, edgeR0 := maskEdgeCols(t.geom, t.w, t.ow)
	var masked int64
	for b := lo; b < hi; b++ {
		oy0 := b * t.band
		oy1 := oy0 + t.band
		if oy1 > t.oh {
			oy1 = t.oh
		}
		iy0, iy1 := maskBandRange(oy0, oy1, t.geom, t.h)
		var e float32
		for _, v := range t.energy[iy0:iy1] {
			e += v
		}
		if e > t.thresh*cellNorm*float32(iy1-iy0) {
			tensor.Im2ColSliceRows(t.cols, t.x, t.c, t.h, t.w, t.geom, oy0, oy1)
			t.packed.MulPanelsColsInto(t.out, t.cols, ohw, t.bias, t.relu, 0, panels, oy0*t.ow, oy1*t.ow)
			continue
		}
		tensor.BiasFillCols(t.out, t.outC, ohw, t.flat, t.relu, oy0*t.ow, oy1*t.ow)
		maskedBandEdges(t.out, t.mu, t.tmp[b*t.outC:(b+1)*t.outC], t.wpre, t.bias,
			t.c, t.outC, t.h, t.w, ohw, t.ow, t.geom, oy0, oy1, edgeL, edgeR0, t.relu)
		masked++
	}
	t.stats.Add(masked, int64(hi-lo))
}
