package serve

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"math/bits"
	"strconv"
	"sync"
	"unsafe"

	"drainnet/internal/tensor"
)

// Request body caps. A clip route is sized for the README's 4×100×100
// example clip as JSON text (40,000 floats at up to 13 bytes each); the
// batch route for maxBatchItems of them. Past its cap a route answers
// 413 payload_too_large instead of buffering the body.
const (
	maxClipBody    = 512 << 10
	maxBatchBody   = maxBatchItems * maxClipBody // 128 MiB
	maxControlBody = 4 << 10
)

// maxPooledBody is the largest body whose decoder goes back to the pool:
// one huge request must not leave its buffers pinned there.
const maxPooledBody = 4 << 20

// maxNesting is encoding/json's nesting limit, kept so a body is refused
// at the same depth as before.
const maxNesting = 10000

// clipItem is one decoded clip: its pixels are pix[off : off+n] of the
// decoder that scanned it.
type clipItem struct {
	bands, size int
	off, n      int
	// nonFinite is 1 + the index of the first pixel that is not finite.
	nonFinite int
}

// clipDecoder is the one decoder of /v1/detect and /v1/detect/batch
// bodies. It reads the body once into body, then scans it in a single
// pass that checks the JSON grammar, matches keys the way encoding/json
// does (ASCII case-insensitively, unknown keys skipped, a repeated key
// decoded over the earlier one) and parses every pixel straight into
// pix, so a pixel is touched once between the socket and the batcher's
// stacking copy. A key spelled with escapes or non-ASCII letters is an
// unknown key, and a repeated "items" key starts the batch over; those
// are the only departures from encoding/json (see the fuzz tests).
//
// Decoders are pooled. The tensors handed to the batcher view pix, so a
// decoder is released only once the pool has returned a result for every
// item; after an abandoned Submit it is left to the GC (see infer).
type clipDecoder struct {
	body  []byte
	pix   []float32
	items []clipItem
	// count is the length of the "items" array; items stops growing at
	// maxBatchItems+1 so an oversized batch is counted, not stored.
	count int
	// errAt is the body offset where the scan failed.
	errAt int
}

var clipDecoders = sync.Pool{New: func() any { return new(clipDecoder) }}

// release returns d to the pool. The caller must hold no view of d.pix.
func (d *clipDecoder) release() {
	if cap(d.body) <= maxPooledBody {
		clipDecoders.Put(d)
	}
}

// read fills d.body from r. The buffer is sized up front from the
// declared length, as far as a pooled buffer goes; past that it grows
// with the bytes that actually arrive.
func (d *clipDecoder) read(r io.Reader, contentLength int64) error {
	need := 4096
	if contentLength > 0 {
		// +1: room for the read that reports EOF.
		need = int(min(contentLength+1, maxPooledBody))
	}
	if cap(d.body) < need {
		d.body = make([]byte, 0, need)
	}
	b := d.body[:0]
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err != nil {
			d.body = b
			if err == io.EOF {
				return nil
			}
			return err
		}
	}
}

// reset prepares d to scan d.body.
func (d *clipDecoder) reset() {
	// Float32 text runs to ≥ 8 bytes a pixel; shorter spellings grow pix.
	if want := len(d.body) / 8; cap(d.pix) < want {
		d.pix = make([]float32, 0, want)
	}
	d.clear()
}

// clear drops every decoded clip.
func (d *clipDecoder) clear() {
	d.pix = d.pix[:0]
	d.items = d.items[:0]
	d.count = 0
}

// decodeDetect scans d.body as one /v1/detect request into d.items[0].
// It reports false, with d.errAt set, where json.Decoder.Decode into a
// DetectRequest would have failed: a syntax error, a value of the wrong
// type, or a number outside its field's range. Like Decode it stops at
// the end of the first value.
func (d *clipDecoder) decodeDetect() bool {
	d.reset()
	d.items = append(d.items, clipItem{})
	return d.clip(d.ws(0), 0, &d.items[0]) >= 0
}

// decodeBatch scans d.body as one /v1/detect/batch request into
// d.items[:min(d.count, len(d.items))]; see decodeDetect.
func (d *clipDecoder) decodeBatch() bool {
	d.reset()
	i := d.ws(0)
	if i < len(d.body) && d.body[i] == '{' {
		return d.object(i, 0, objBatch, nil) >= 0
	}
	return d.lit(i, "null") >= 0
}

// tensor returns item it's pixels as a 1×C×H×W view of d.pix. The item
// must have passed Server.checkClip.
func (d *clipDecoder) tensor(it *clipItem) *tensor.Tensor {
	return tensor.FromSlice(d.pix[it.off:it.off+it.n], 1, it.bands, it.size, it.size)
}

// Every scan method takes the offset to scan from and returns the offset
// after what it scanned, or -1 once the body is refused.

func (d *clipDecoder) fail(i int) int {
	d.errAt = i
	return -1
}

func (d *clipDecoder) ws(i int) int {
	b := d.body
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\r' || b[i] == '\t') {
		i++
	}
	return i
}

func (d *clipDecoder) lit(i int, word string) int {
	if !bytes.HasPrefix(d.body[i:], []byte(word)) {
		return d.fail(i)
	}
	return i + len(word)
}

// str scans the string whose opening quote is b[i-1]. plain reports that
// it held neither an escape nor a non-ASCII byte, so its bytes are its
// value.
func (d *clipDecoder) str(i int) (next int, plain bool) {
	b := d.body
	plain = true
	for ; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			return i + 1, plain
		case c == '\\':
			plain = false
			i++
			if i >= len(b) {
				return d.fail(i), false
			}
			switch b[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				for k := 1; k <= 4; k++ {
					if i+k >= len(b) || !isHex(b[i+k]) {
						return d.fail(i + k), false
					}
				}
				i += 4
			default:
				return d.fail(i), false
			}
		case c < ' ':
			return d.fail(i), false
		case c >= 0x80:
			plain = false
		}
	}
	return d.fail(i), false
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// more scans what follows an element of the container that close ends:
// a comma, after which the next element starts at next, or close itself.
func (d *clipDecoder) more(i int, close byte) (next int, more bool) {
	b := d.body
	i = d.ws(i)
	switch {
	case i < len(b) && b[i] == close:
		return i + 1, false
	case i < len(b) && b[i] == ',':
		return d.ws(i + 1), true
	}
	return d.fail(i), false
}

// number scans a JSON number without converting it.
func (d *clipDecoder) number(i int) int {
	if _, _, _, next := scanDecimal(d.body, i); next >= 0 {
		return next
	}
	return d.fail(i)
}

// skip scans any JSON value, checking its grammar and nothing else.
// depth counts the containers around it.
func (d *clipDecoder) skip(i, depth int) int {
	b := d.body
	if i >= len(b) {
		return d.fail(i)
	}
	switch c := b[i]; {
	case c == '"':
		next, _ := d.str(i + 1)
		return next
	case c == '{':
		return d.object(i, depth, objSkip, nil)
	case c == '[':
		if depth >= maxNesting {
			return d.fail(i)
		}
		i = d.ws(i + 1)
		if i < len(b) && b[i] == ']' {
			return i + 1
		}
		for more := true; more; {
			if i = d.skip(i, depth+1); i < 0 {
				return -1
			}
			i, more = d.more(i, ']')
		}
		return i
	case c == 't':
		return d.lit(i, "true")
	case c == 'f':
		return d.lit(i, "false")
	case c == 'n':
		return d.lit(i, "null")
	case c == '-' || isDigit(c):
		return d.number(i)
	}
	return d.fail(i)
}

// objKind says which members of an object are decoded rather than
// skipped.
type objKind uint8

const (
	objSkip  objKind = iota // none
	objClip                 // bands, size, pixels, into a clipItem
	objBatch                // items
)

// object scans the object opening at b[i]. Known members of kind are
// decoded (a clip's into it); everything else is skipped.
func (d *clipDecoder) object(i, depth int, kind objKind, it *clipItem) int {
	b := d.body
	if depth >= maxNesting {
		return d.fail(i)
	}
	i = d.ws(i + 1)
	if i < len(b) && b[i] == '}' {
		return i + 1
	}
	for more := true; more; {
		if i >= len(b) || b[i] != '"' {
			return d.fail(i)
		}
		keyStart := i + 1
		next, plain := d.str(keyStart)
		if next < 0 {
			return -1
		}
		key := b[keyStart : next-1]
		i = d.ws(next)
		if i >= len(b) || b[i] != ':' {
			return d.fail(i)
		}
		i = d.ws(i + 1)
		switch {
		case !plain || kind == objSkip:
			i = d.skip(i, depth+1)
		case kind == objBatch && keyIs(key, "items"):
			i = d.itemsValue(i)
		case kind == objClip && keyIs(key, "bands"):
			i = d.intValue(i, &it.bands)
		case kind == objClip && keyIs(key, "size"):
			i = d.intValue(i, &it.size)
		case kind == objClip && keyIs(key, "pixels"):
			i = d.pixelsValue(i, it)
		default:
			i = d.skip(i, depth+1)
		}
		if i < 0 {
			return -1
		}
		i, more = d.more(i, '}')
	}
	return i
}

// keyIs matches a plain (ASCII) key to a field name the way
// encoding/json does: case-insensitively.
func keyIs(key []byte, name string) bool { return bytes.EqualFold(key, []byte(name)) }

// intValue decodes an int field. null leaves *v alone, as encoding/json
// does; a fraction, an exponent or an overflow is refused.
func (d *clipDecoder) intValue(i int, v *int) int {
	b := d.body
	if i < len(b) && b[i] == 'n' {
		return d.lit(i, "null")
	}
	if i >= len(b) || b[i] != '-' && !isDigit(b[i]) {
		return d.fail(i)
	}
	next := d.number(i)
	if next < 0 {
		return -1
	}
	// ParseInt refuses a fraction or an exponent along with an overflow.
	n, err := strconv.ParseInt(string(b[i:next]), 10, strconv.IntSize)
	if err != nil {
		return d.fail(i)
	}
	*v = int(n)
	return next
}

// clip decodes one DetectRequest value into it: an object, or a null
// that leaves it as it is.
func (d *clipDecoder) clip(i, depth int, it *clipItem) int {
	if i < len(d.body) && d.body[i] == '{' {
		return d.object(i, depth, objClip, it)
	}
	return d.lit(i, "null")
}

// itemsValue decodes the "items" member: an array of clips, or a null
// that empties the batch. A repeated "items" key starts the batch over.
func (d *clipDecoder) itemsValue(i int) int {
	b := d.body
	d.clear()
	if i >= len(b) || b[i] != '[' {
		return d.lit(i, "null")
	}
	i = d.ws(i + 1)
	if i < len(b) && b[i] == ']' {
		return i + 1
	}
	for more := true; more; {
		// Items past the limit are scanned, so a later error in the body
		// still wins, into a slot the next one reuses.
		if d.count <= maxBatchItems {
			d.items = append(d.items, clipItem{})
		} else {
			d.pix = d.pix[:d.items[maxBatchItems].off]
			d.items[maxBatchItems] = clipItem{}
		}
		it := &d.items[len(d.items)-1]
		it.off = len(d.pix)
		d.count++
		if i = d.clip(i, 2, it); i < 0 {
			return -1
		}
		i, more = d.more(i, ']')
	}
	return i
}

// pixelsValue decodes the "pixels" member of the clip being scanned,
// whose storage is the tail of d.pix from it.off. Where the key repeats,
// encoding/json decodes the later array over the earlier one, and a null
// element keeps what it finds: the earlier value, or 0 in fresh storage.
// A null or empty "pixels" drops the storage.
func (d *clipDecoder) pixelsValue(i int, it *clipItem) int {
	b := d.body
	it.n, it.nonFinite = 0, 0
	if i >= len(b) || b[i] != '[' {
		d.pix = d.pix[:it.off]
		return d.lit(i, "null")
	}
	i = d.ws(i + 1)
	if i < len(b) && b[i] == ']' {
		d.pix = d.pix[:it.off]
		return i + 1
	}
	pix := d.pix
	at := it.off                 // where the next element lands
	last := len(b) - tokenWindow // the last offset pixelToken may start at
	for {
		if i <= last {
			if f, next := pixelToken(b, i); next > 0 {
				if at < len(pix) {
					pix[at] = f
				} else {
					pix = append(pix, f)
				}
				at++
				// One pixel of the token shape predicts a run of them: the
				// kernel takes the rest of it, into pix's spare capacity or
				// over held pixels, and pix grows only over what it wrote.
				// Where the kernel stops, this loop goes on as before, so a
				// pixel of another shape never pays for a vector step.
				if usePixelRun {
					if k, after := pixelRun(pix[at:cap(pix)], b, next); k > 0 {
						at += k
						pix = pix[:max(len(pix), at)]
						next = after
					}
				}
				i = d.ws(next)
				continue
			}
		}
		if i >= len(b) {
			return d.fail(i)
		}
		if c := b[i]; c == '-' || isDigit(c) {
			f, next := scanFloat32(b, i)
			if next < 0 {
				return d.fail(i)
			}
			// Unreachable while scanFloat32 refuses what overflows float32;
			// kept so nothing non-finite can reach a replica.
			if math.Float32bits(f)&0x7f800000 == 0x7f800000 && it.nonFinite == 0 {
				it.nonFinite = at - it.off + 1
			}
			if at < len(pix) {
				pix[at] = f
			} else {
				pix = append(pix, f)
			}
			i = next
		} else {
			if i = d.lit(i, "null"); i < 0 {
				return -1
			}
			if at == len(pix) {
				pix = append(pix, 0)
			}
		}
		at++
		// d.more spelled out: as a call it costs this loop, which runs once
		// a pixel, 15%.
		i = d.ws(i)
		if i < len(b) && b[i] == ']' {
			d.pix = pix
			it.n = at - it.off
			return i + 1
		}
		if i >= len(b) || b[i] != ',' {
			return d.fail(i)
		}
		i = d.ws(i + 1)
	}
}

// pow10 holds the powers of ten a float64 represents exactly, and
// negPow10 the float64s nearest their reciprocals.
var (
	pow10 = [...]float64{
		1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
		1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
	}
	negPow10 = [...]float64{
		1e-0, 1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10, 1e-11,
		1e-12, 1e-13, 1e-14, 1e-15, 1e-16, 1e-17, 1e-18, 1e-19, 1e-20, 1e-21, 1e-22,
	}
)

// tokenWindow is how many bytes pixelToken reads: "0.", up to 9 digits
// and the ','.
const tokenWindow = 12

// pixelToken parses the pixel at b[i] when its token is "0." and 1 to 9
// digits followed by ',' — how json.Marshal spells a float32 in [0.1, 1)
// and most of those in [1e-6, 0.1) — into the float32 scanFloat32 would
// return. next is the offset past the ',', or 0 for any other token,
// which then goes to scanFloat32 byte for byte. b[i:i+tokenWindow] must
// exist.
//
// It does not branch on each digit: one 8-byte load, one mask that finds
// the first non-digit, and three multiply-shifts that combine the digits
// (Lemire, "Number Parsing at a Gigabyte per Second", arXiv:2101.11408),
// so one pixel's parse does not wait on the exit of the last one's digit
// loop.
func pixelToken(b []byte, i int) (f float32, next int) {
	if b[i] != '0' || b[i+1] != '.' {
		return 0, 0
	}
	w := binary.LittleEndian.Uint64(b[i+2:])
	// Byte k is (high nibble of c)·16 + (high nibble of c+6), 0x33 just
	// for a digit. Only a byte ≥ 0xfa carries into the next, and it is
	// not a digit: up to the first non-digit every byte is exact.
	const hi = 0xf0f0f0f0f0f0f0f0
	nonDigit := (w&hi | (w+0x0606060606060606)&hi>>4) ^ 0x3333333333333333
	n := bits.TrailingZeros64(nonDigit) >> 3 // leading digits, 0 to 8
	if n == 0 {
		return 0, 0
	}
	// The digits, as values, at the top of v: byte 7 is the last digit,
	// and the bytes below the first are 0. A byte below '0' past the
	// digits borrows only from bytes above it, which the shift drops.
	v := (w - 0x3030303030303030) << ((64 - 8*uint(n)) & 63)
	v = (v * (10<<8 + 1)) >> 8 // byte 2k: 10·digit 2k + digit 2k+1
	v = ((v & 0x00ff00ff00ff00ff) * (100<<16 + 1)) >> 16
	v = ((v & 0x0000ffff0000ffff) * (10000<<32 + 1)) >> 32
	// A ninth digit, taken without a branch: json.Marshal writes 8 digits
	// for 55–65% of pixels in [0, 1) and 7 for most of the rest, so a
	// branch on n == 8 would mispredict often.
	d9 := uint64(b[i+10] - '0')
	nine := uint64(n>>3) & ((d9 - 10) >> 63) // n == 8 and b[i+10] a digit
	v = v*(1+9*nine) + d9*nine
	n += int(nine)
	next = i + 2 + n
	if b[next] != ',' {
		return 0, 0
	}
	if f, ok := roundFloat32(float64(v) * negPow10[n]); ok {
		return f, next + 1
	}
	return 0, 0
}

// usePixelRun routes runs of token-shaped pixels through pixelRun. It is
// set once, from what the CPU and the OS report (tensor.ByteKernelMissing;
// false on every other GOARCH and under the purego build tag), and is not
// configurable: both paths compute the same bits, so there is nothing to
// choose. Tests flip it to run the scalar loop and the kernel in one
// process.
var usePixelRun = tensor.ByteKernelMissing() == ""

// decodeISA names the instruction set the pixel decoder runs on this
// host: "avx512" (pixelRun's kernel) or "generic" (pixelToken alone).
func decodeISA() string {
	if usePixelRun {
		return "avx512"
	}
	return "generic"
}

// pixelRun converts, from b[i], the longest run of pixels whose tokens
// each have pixelToken's shape — "0.", 1 to 9 digits, ',' — into
// dst[:k]: exactly the float32s pixelToken returns for them. next is the
// offset past the last ',' it consumed (i when k is 0). It stops before
// any other token, and also where its kernel stops: that reads b in
// 64-byte windows, up to eight tokens each, and writes eight floats at
// most per window, so it converts nothing once fewer than 64 bytes
// remain at a window's start or dst has fewer than 8 free slots. It
// needs the kernel: call it only where usePixelRun could be set.
func pixelRun(dst []float32, b []byte, i int) (k, next int) {
	if len(b)-i < 64 || len(dst) < 8 {
		return 0, i
	}
	k, adv := pixelRunKernel(unsafe.SliceData(dst), len(dst), &b[i], len(b)-i)
	return k, i + adv
}

// scanDecimal scans the JSON number at b[i], checking its grammar, and
// reads its digits: the value is mant × 10^exp10 when all of the digits
// fit mant (19 do). next is -1 for a malformed number.
func scanDecimal(b []byte, i int) (mant uint64, digits, exp10, next int) {
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else {
		for ; i < len(b) && isDigit(b[i]); i++ {
			if digits < 19 {
				mant = mant*10 + uint64(b[i]-'0')
			}
			digits++
		}
		if digits == 0 {
			return 0, 0, 0, -1
		}
	}
	if i < len(b) && b[i] == '.' {
		i++
		fracStart := i
		for ; i < len(b) && isDigit(b[i]); i++ {
			if digits < 19 {
				mant = mant*10 + uint64(b[i]-'0')
			}
			digits++
		}
		if i == fracStart {
			return 0, 0, 0, -1
		}
		exp10 = fracStart - i
	}
	if i < len(b) && b[i]|0x20 == 'e' {
		i++
		eneg := false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			eneg = b[i] == '-'
			i++
		}
		expStart := i
		e := 0
		for ; i < len(b) && isDigit(b[i]); i++ {
			if e < 10000 { // beyond any float; keep it from overflowing
				e = e*10 + int(b[i]-'0')
			}
		}
		if i == expStart {
			return 0, 0, 0, -1
		}
		if eneg {
			e = -e
		}
		exp10 += e
	}
	return mant, digits, exp10, i
}

// scanFloat32 parses the JSON number at b[i] into the float32
// strconv.ParseFloat(token, 32) returns, bit for bit. next is -1 for a
// malformed number or one that overflows float32.
func scanFloat32(b []byte, i int) (f float32, next int) {
	mant, digits, exp10, next := scanDecimal(b, i)
	if next < 0 {
		return 0, -1
	}
	if v, ok := fastFloat32(mant, digits, exp10); ok {
		if b[i] == '-' {
			v = -v
		}
		return v, next
	}
	v, err := strconv.ParseFloat(string(b[i:next]), 32)
	if err != nil {
		return 0, -1 // out of float32's range
	}
	return float32(v), next
}

// fastFloat32 converts mant × 10^exp10 (digits decimal digits were read
// into mant) when mant and 10^exp10, or its nearest float64 reciprocal,
// multiply to a float64 that rounds to the float32 the decimal rounds to.
// Every float64 it can produce is well inside float32's normal range. ok
// false sends the token to strconv.ParseFloat.
//
// The float64 is at most 2 ulp from the decimal: mant is exact,
// RN(10^-k) and the product each add at most half an ulp of relative
// error, and 10^k (k ≤ 22) is exact. A float32 rounding changes only at
// the midpoint of two float32s, so a float64 more than 4 ulp from any
// midpoint lies on the same side of it as the decimal, and roundFloat32
// declines the rest.
func fastFloat32(mant uint64, digits, exp10 int) (v float32, ok bool) {
	if digits > 19 || mant >= 1<<53 || exp10 < -22 || exp10 > 22 {
		return 0, false
	}
	if exp10 < 0 {
		return roundFloat32(float64(mant) * negPow10[-exp10])
	}
	return roundFloat32(float64(mant) * pow10[exp10])
}

// roundFloat32 rounds f to float32 unless f lies within 4 ulp of the
// midpoint of two float32s. float32 keeps 23 of float64's 52 fraction
// bits; the 29 it drops read 1000…0 exactly at a midpoint.
func roundFloat32(f float64) (v float32, ok bool) {
	if math.Float64bits(f)&(1<<29-1)-(1<<28-4) <= 8 {
		return 0, false
	}
	return float32(f), true
}
