package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"drainnet/internal/metrics"
	"drainnet/internal/model"
	"drainnet/internal/telemetry"
	"drainnet/internal/tensor"
)

// The reference the clip scanner is tested against is the code it
// replaced: json.Decoder.Decode into the wire structs, then validate.

// validate applies the request schema: band count, positive and
// sufficient dims, pixel count = bands·size², finite pixels.
func (s *Server) validate(req *DetectRequest) *apiError {
	if req.Bands != s.cfg.InBands {
		return badRequest(CodeInvalidRequest,
			fmt.Sprintf("model expects %d bands, got %d", s.cfg.InBands, req.Bands))
	}
	if req.Size <= 0 {
		return badRequest(CodeInvalidRequest, fmt.Sprintf("non-positive size %d", req.Size))
	}
	if req.Size < minClipSize {
		return badRequest(CodeInvalidRequest,
			fmt.Sprintf("clip size %d below minimum %d", req.Size, minClipSize))
	}
	if req.Size > math.MaxInt/req.Bands/req.Size {
		return badRequest(CodeInvalidRequest, fmt.Sprintf("clip size %d too large", req.Size))
	}
	if want := req.Bands * req.Size * req.Size; len(req.Pixels) != want {
		return badRequest(CodeInvalidRequest,
			fmt.Sprintf("expected %d pixels (bands·size²), got %d", want, len(req.Pixels)))
	}
	for i, v := range req.Pixels {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			return badRequest(CodeInvalidRequest, fmt.Sprintf("pixel %d is not finite", i))
		}
	}
	return nil
}

func (s *Server) referenceDetect(b []byte) (DetectRequest, *apiError) {
	var req DetectRequest
	if err := json.NewDecoder(bytes.NewReader(b)).Decode(&req); err != nil {
		return req, badRequest(CodeBadJSON, "bad JSON: "+err.Error())
	}
	return req, s.validate(&req)
}

// referenceBatch returns the request-level error, or the items with the
// error of each.
func (s *Server) referenceBatch(b []byte) ([]DetectRequest, []*apiError, *apiError) {
	var br BatchRequest
	if err := json.NewDecoder(bytes.NewReader(b)).Decode(&br); err != nil {
		return nil, nil, badRequest(CodeBadJSON, "bad JSON: "+err.Error())
	}
	if len(br.Items) == 0 {
		return nil, nil, badRequest(CodeInvalidRequest, `empty batch ("items" missing or empty)`)
	}
	if len(br.Items) > maxBatchItems {
		return nil, nil, badRequest(CodeInvalidRequest,
			fmt.Sprintf("batch of %d exceeds limit %d", len(br.Items), maxBatchItems))
	}
	errs := make([]*apiError, len(br.Items))
	for i := range br.Items {
		errs[i] = s.validate(&br.Items[i])
	}
	return br.Items, errs, nil
}

// allowListed reports that b uses one of the two corners of
// encoding/json the scanner deliberately does not emulate, so the two
// may disagree on it:
//
//   - a key spelled with an escape or a non-ASCII letter that
//     encoding/json still folds onto a field ("bands", "bandſ"):
//     the scanner treats it as an unknown key;
//   - a repeated "items" key: encoding/json decodes the later array over
//     the elements of the earlier one, so fields a later element omits
//     keep their earlier values; the scanner starts the batch over.
func allowListed(b []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(b))
	for depth := 0; ; {
		from := dec.InputOffset()
		tok, err := dec.Token()
		if err != nil {
			break
		}
		switch v := tok.(type) {
		case json.Delim:
			if v == '{' || v == '[' {
				depth++
			} else {
				depth--
			}
		case string:
			raw := b[from:dec.InputOffset()]
			exotic := bytes.IndexByte(raw, '\\') >= 0 || bytes.IndexFunc(raw, func(r rune) bool { return r >= 0x80 }) >= 0
			for _, name := range []string{"bands", "size", "pixels", "items"} {
				if exotic && strings.EqualFold(v, name) {
					return true
				}
			}
		}
		if depth == 0 {
			break
		}
	}
	var probe struct {
		Items keyCount `json:"items"`
	}
	_ = json.NewDecoder(bytes.NewReader(b)).Decode(&probe) // a body it refuses is refused by both
	return probe.Items > 1
}

// keyCount counts how often encoding/json matched a key to its field.
type keyCount int

func (k *keyCount) UnmarshalJSON([]byte) error { *k++; return nil }

// sameError requires both sides to accept, or to refuse with the same
// code and, for a schema error, the same message.
func sameError(t *testing.T, what string, want, got *apiError) {
	t.Helper()
	switch {
	case want == nil && got == nil:
	case want == nil || got == nil:
		t.Fatalf("%s: encoding/json says %v, scanner says %v", what, want, got)
	case want.Code != got.Code:
		t.Fatalf("%s: encoding/json says %v, scanner says %v", what, want, got)
	case want.Code == CodeInvalidRequest && want.Message != got.Message:
		t.Fatalf("%s: message %q, scanner's %q", what, want.Message, got.Message)
	}
}

func sameClip(t *testing.T, what string, want *DetectRequest, d *clipDecoder, it *clipItem) {
	t.Helper()
	if want.Bands != it.bands || want.Size != it.size || len(want.Pixels) != it.n {
		t.Fatalf("%s: encoding/json decoded bands %d size %d, %d pixels; scanner %d, %d, %d",
			what, want.Bands, want.Size, len(want.Pixels), it.bands, it.size, it.n)
	}
	for i, v := range want.Pixels {
		if got := d.pix[it.off+i]; math.Float32bits(v) != math.Float32bits(got) {
			t.Fatalf("%s: pixel %d is %v (%#x), scanner's %v (%#x)",
				what, i, v, math.Float32bits(v), got, math.Float32bits(got))
		}
	}
}

// schemaServer is enough of a Server to check requests against.
func schemaServer() *Server { return &Server{cfg: model.Config{InBands: 4}} }

func checkDetectAgainstReference(t *testing.T, s *Server, b []byte) {
	t.Helper()
	if allowListed(b) {
		return
	}
	want, wantErr := s.referenceDetect(b)
	d := &clipDecoder{body: b}
	gotErr := s.scanDetect(d)
	sameError(t, "request", wantErr, gotErr)
	if wantErr == nil {
		sameClip(t, "clip", &want, d, &d.items[0])
	}
}

func checkBatchAgainstReference(t *testing.T, s *Server, b []byte) {
	t.Helper()
	if allowListed(b) {
		return
	}
	want, wantErrs, wantErr := s.referenceBatch(b)
	d := &clipDecoder{body: b}
	gotErr := s.scanBatch(d)
	sameError(t, "request", wantErr, gotErr)
	if wantErr != nil {
		return
	}
	if d.count != len(want) {
		t.Fatalf("encoding/json decoded %d items, scanner %d", len(want), d.count)
	}
	for i := range want {
		what := fmt.Sprintf("item %d", i)
		sameError(t, what, wantErrs[i], s.checkClip(&d.items[i]))
		if wantErrs[i] == nil {
			sameClip(t, what, &want[i], d, &d.items[i])
		}
	}
}

// harnessClip is a clip body as the benchmark harness encodes it:
// json.Marshal of float32 pixels in [0,1).
func harnessClip(seed int64, size int) []byte {
	rng := rand.New(rand.NewSource(seed))
	req := DetectRequest{Bands: 4, Size: size, Pixels: make([]float32, 4*size*size)}
	for i := range req.Pixels {
		req.Pixels[i] = rng.Float32()
	}
	b, err := json.Marshal(req)
	if err != nil {
		panic(err)
	}
	return b
}

func batchBody(clips ...[]byte) []byte {
	return []byte(`{"items":[` + string(bytes.Join(clips, []byte(","))) + `]}`)
}

// px is a valid 4×8×8 pixel list with head in front.
func px(head string) string {
	rest := strings.Repeat(",0.5", 256-1-strings.Count(head, ","))
	return "[" + head + rest + "]"
}

// clipSeeds are single-clip bodies covering the corners named in the
// scanner's contract; the batch fuzzer wraps them as items too.
func clipSeeds() [][]byte {
	small := harnessClip(3, 8)
	seeds := [][]byte{harnessClip(1, 40), small}
	for i, c := range small {
		if strings.IndexByte(`{}[],:"`, c) >= 0 && (i < 64 || i > len(small)-8) {
			seeds = append(seeds, small[:i], small[:i+1])
		}
	}
	for _, s := range []string{
		// float32 range, sign, spelling.
		`{"bands":4,"size":8,"pixels":` + px("1e39") + `}`,
		`{"bands":4,"size":8,"pixels":` + px("-1e39") + `}`,
		`{"bands":4,"size":8,"pixels":` + px("3.4028235e38,3.4028236e38") + `}`,
		`{"bands":4,"size":8,"pixels":` + px("1e-46,1e-45,1.1754942e-38,-1e-400") + `}`,
		`{"bands":4,"size":8,"pixels":` + px("-0,-0.0,0e9,1E+2,1e-2,1E2") + `}`,
		`{"bands":4,"size":8,"pixels":` + px("0."+strings.Repeat("1234567890", 40)) + `}`,
		`{"bands":4,"size":8,"pixels":` + px(strings.Repeat("9", 400)+"e-400") + `}`,
		`{"bands":4,"size":8,"pixels":` + px("16777217,8.000000476837159,9007199254740993") + `}`,
		`{"bands":4,"size":8,"pixels":` + px("01") + `}`,
		// The token path's edges ("0." and 1-9 digits, then ',').
		`{"bands":4,"size":8,"pixels":` + px(strings.Join(pixelTokenEdges[:10], ",")) + `}`,
		`{"bands":4,"size":8,"pixels":` + px("0.12345678e5,0.1234 ,0.5") + `}`,
		`{"bands":4,"size":8,"pixels":[` + strings.Repeat("0.12345678,", 255) + `0.123456789]}`,
		`{"bands":4,"size":8,"pixels":[` + strings.Repeat("0.1234567,", 255) + `0.5]}`,
		`{"bands":4,"size":8,"pixels":` + px("-0.5,0.848978191614151") + `}`,
		// Long enough for pixelRun: a non-fast pixel amid runs of
		// token-shaped ones, and a run cut short.
		`{"bands":4,"size":8,"pixels":` + px(strings.Repeat("0.12345678,0.1234567,", 5)+"0.5 ,0.25,1e-3,0.123456789,-0.5,0.,"+strings.Repeat("0.7654321,", 9)+"null") + `}`,
		`{"bands":4,"size":8,"pixels":` + px(strings.Repeat("0.87654321,", 7)+"0.1234567890,"+strings.Repeat("0.87654321,", 7)+"0.5e3") + `}`,
		`{"bands":4,"size":8,"pixels":[` + strings.Repeat("0.12345678,", 40) + `0.1`,
		`{"bands":4,"size":8,"pixels":` + px("00.5") + `}`,
		`{"bands":4,"size":8,"pixels":` + px("0.") + `}`,
		`{"bands":4,"size":8,"pixels":[0.12345678,0.1234`,
		`{"bands":4,"size":8,"pixels":[0.12345678,0.123456789`,
		`{"bands":4,"size":8,"pixels":` + px("1.") + `}`,
		`{"bands":4,"size":8,"pixels":` + px(".5") + `}`,
		`{"bands":4,"size":8,"pixels":` + px("+1") + `}`,
		`{"bands":4,"size":8,"pixels":` + px("1e") + `}`,
		`{"bands":4,"size":8,"pixels":` + px("-") + `}`,
		`{"bands":4,"size":8,"pixels":` + px("NaN") + `}`,
		`{"bands":4,"size":8,"pixels":` + px("0x10") + `}`,
		`{"bands":4,"size":8,"pixels":` + px(`"1"`) + `}`,
		`{"bands":4,"size":8,"pixels":` + px("true") + `}`,
		`{"bands":4,"size":8,"pixels":` + px("[1]") + `}`,
		`{"bands":4,"size":8,"pixels":` + px("null,1,null") + `}`,
		// int fields.
		`{"bands":4.0,"size":8,"pixels":` + px("1") + `}`,
		`{"bands":4e0,"size":8,"pixels":` + px("1") + `}`,
		`{"bands":99999999999999999999,"size":8,"pixels":` + px("1") + `}`,
		`{"bands":-0,"size":8,"pixels":[]}`,
		`{"bands":"4","size":8,"pixels":` + px("1") + `}`,
		`{"bands":null,"size":null,"pixels":null}`,
		`{"bands":4,"size":3037000500,"pixels":[]}`,
		`{"bands":4,"size":4294967296,"pixels":[]}`,
		`{"bands":4,"size":2147483648,"pixels":[]}`,
		`{"bands":3,"size":8,"pixels":` + px("1e39") + `}`,
		`{"bands":4,"size":7,"pixels":[1]}`,
		`{"bands":4,"size":-8,"pixels":[1]}`,
		`{"bands":4,"size":8,"pixels":[1,2,3]}`,
		`{"bands":4,"size":8,"pixels":null}`,
		`{"bands":4,"size":8,"pixels":{}}`,
		`{"bands":4,"size":8,"pixels":5}`,
		// Repeated keys: the later value is decoded over the earlier one.
		`{"bands":3,"bands":4,"size":8,"pixels":` + px("1") + `}`,
		`{"bands":4,"bands":null,"size":8,"pixels":` + px("1") + `}`,
		`{"bands":4,"size":8,"pixels":[9,8,7],"pixels":` + px("null,2,null") + `}`,
		`{"bands":4,"size":8,"pixels":` + px("9,8,7") + `,"pixels":[1],"pixels":` + px("null,null,null") + `}`,
		`{"bands":4,"size":8,"pixels":` + px("9,8,7") + `,"pixels":[],"pixels":` + px("null,null,null") + `}`,
		`{"bands":4,"size":8,"pixels":` + px("9,8,7") + `,"pixels":null,"pixels":` + px("null") + `}`,
		// Unknown and oddly spelled keys.
		`{"meta":{"a":[1,[2,{"b":null}],"x\"y\\zé\ud800"],"c":{}},"bands":4,"size":8,"pixels":` + px("1") + `,"z":[[],{}]}`,
		`{"note":"tab\tin string","bands":4,"size":8,"pixels":[]}`,
		`{"note":"bad escape \x","bands":4,"size":8,"pixels":[]}`,
		`{"note":"short \u12","bands":4,"size":8,"pixels":[]}`,
		`{"n":tru,"bands":4}`,
		`{"n":1.5e+,"bands":4}`,
		`{"BANDS":4,"Size":8,"pIxElS":` + px("1") + `}`,
		`{"b\u0061nds":4,"size":8,"pixels":` + px("1") + `}`,
		`{"bandſ":4,"size":8,"pixels":` + px("1") + `}`,
		`{"bands ":4,"size":8,"pixels":` + px("1") + `}`,
		`{"":4,"size":8}`,
		`{"deep":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `,"bands":4}`,
		`{"deep":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `,"bands":4}`,
		`{"deep":` + strings.Repeat(`{"a":`, 10000) + "1" + strings.Repeat("}", 10000) + `,"bands":4}`,
		// Around the value.
		" \t\r\n" + string(small) + " \n",
		string(small) + `garbage`,
		string(small) + string(small),
		"\ufeff" + string(small),
		"\v" + string(small),
		``, ` `, `null`, `nullx`, `nul`, `true`, `12`, `"x"`, `[]`, `[{}]`, `{}`, `{`, `{"bands"}`, `{"bands":4,}`,
		`{"bands":4 "size":8}`, `{bands:4}`, `{'bands':4}`,
	} {
		seeds = append(seeds, []byte(s))
	}
	return seeds
}

func batchSeeds() [][]byte {
	a, b := harnessClip(5, 8), harnessClip(6, 8)
	whole := batchBody(a, b)
	seeds := [][]byte{batchBody(harnessClip(1, 40), harnessClip(2, 40)), whole}
	for i, c := range whole {
		if strings.IndexByte(`{}[],:"`, c) >= 0 && (i < 64 || i > len(a) && i < len(a)+80 || i > len(whole)-8) {
			seeds = append(seeds, whole[:i], whole[:i+1])
		}
	}
	for _, c := range clipSeeds() {
		if len(c) < 1<<12 {
			seeds = append(seeds, batchBody(a, c, b))
		}
	}
	many := make([][]byte, maxBatchItems+1)
	for i := range many {
		many[i] = []byte(`{}`)
	}
	for _, s := range []string{
		`{"items":[]}`, `{"items":null}`, `{"items":{}}`, `{"items":5}`, `{"Items":[null]}`, `{}`, `null`, `[]`,
		`{"items":[null,` + string(a) + `,null]}`,
		`{"items":[1]}`, `{"items":["x"]}`, `{"items":[[]]}`, `{"items":[` + string(a) + `,]}`,
		`{"x":[{"items":1}],"items":[` + string(a) + `],"y":"items"}`,
		`{"items":[` + string(a) + `],"items":[{}]}`,
		`{"items":[` + string(a) + `],"items":null}`,
		`{"items":[` + string(a) + `]}`,
		string(batchBody(many[:maxBatchItems]...)),
		string(batchBody(many...)),
		string(batchBody(append(many, []byte(`{"pixels":[1e39]}`))...)),
		" " + string(whole) + "x",
	} {
		seeds = append(seeds, []byte(s))
	}
	return seeds
}

func FuzzDecodeDetect(f *testing.F) {
	for _, seed := range clipSeeds() {
		f.Add(seed)
	}
	s := schemaServer()
	logKernelLeg(f)
	f.Fuzz(func(t *testing.T, b []byte) {
		bothPaths(func() { checkDetectAgainstReference(t, s, b) })
	})
}

func FuzzDecodeBatch(f *testing.F) {
	for _, seed := range batchSeeds() {
		f.Add(seed)
	}
	s := schemaServer()
	logKernelLeg(f)
	f.Fuzz(func(t *testing.T, b []byte) {
		bothPaths(func() { checkBatchAgainstReference(t, s, b) })
	})
}

// The allow-list must not swallow the seeds that are there to be
// compared: only those that spell a key exotically or repeat "items".
func TestAllowListIsNarrow(t *testing.T) {
	listed := 0
	for _, b := range append(clipSeeds(), batchSeeds()...) {
		if allowListed(b) {
			listed++
		}
	}
	// Two exotic spellings among the clip seeds, the same two as batch
	// items, and two batch seeds that repeat "items".
	if want := 2 + 2 + 2; listed != want {
		t.Fatalf("%d seeds are allow-listed, want %d", listed, want)
	}
}

func parse32(t *testing.T, tok string) (float32, bool) {
	t.Helper()
	want, err := strconv.ParseFloat(tok, 32)
	// A trailing byte stands in for the ',' or ']' that follows a pixel.
	got, next := scanFloat32([]byte(tok+","), 0)
	if err != nil {
		if next >= 0 {
			t.Fatalf("%s: ParseFloat refuses it (%v), scanner gives %v", tok, err, got)
		}
		return 0, false
	}
	if next != len(tok) {
		t.Fatalf("%s: scanner stopped at %d", tok, next)
	}
	if math.Float32bits(float32(want)) != math.Float32bits(got) {
		t.Fatalf("%s: ParseFloat gives %v (%#x), scanner %v (%#x)",
			tok, float32(want), math.Float32bits(float32(want)), got, math.Float32bits(got))
	}
	return got, true
}

func TestFastFloat32MatchesParseFloat(t *testing.T) {
	// Tokens the fast path must decline, and still come out bit-equal
	// through the ParseFloat fallback.
	for _, c := range []struct {
		tok    string
		mant   uint64
		digits int
		exp10  int
	}{
		{"16777217", 16777217, 8, 0},                             // exactly between two float32s
		{"8.000000476837159", 8000000476837159, 16, -15},         // rounds to such a midpoint as a float64
		{"9007199254740992", 1 << 53, 16, 0},                     // not exact as a float64
		{"1e23", 1, 1, 23},                                       // power of ten not exact
		{"1e-23", 1, 1, -23},                                     //
		{"0.10000000000000000001", 1000000000000000000, 20, -20}, // digits dropped from mant
	} {
		if _, ok := fastFloat32(c.mant, c.digits, c.exp10); ok {
			t.Fatalf("fast path took %s", c.tok)
		}
		if _, ok := parse32(t, c.tok); !ok {
			t.Fatalf("%s refused", c.tok)
		}
	}
	// Why the midpoint test is there: through float64 this one rounds
	// twice and lands on the wrong float32.
	const victim = "8.000000476837159"
	twice, _ := strconv.ParseFloat(victim, 64)
	if once, _ := parse32(t, victim); once == float32(twice) {
		t.Fatalf("%s no longer shows double rounding; pick another victim", victim)
	}

	rng := rand.New(rand.NewSource(1))
	check := func(tok string) {
		if _, ok := parse32(t, tok); !ok {
			t.Fatalf("%s refused", tok)
		}
	}
	for n := 0; n < 200000; n++ {
		bits := rng.Uint32()
		f := math.Float32frombits(bits)
		if f-f != 0 {
			continue // NaN, ±Inf: not JSON
		}
		v := float64(f)
		check(strconv.FormatFloat(v, 'g', -1, 32))
		check(strconv.FormatFloat(v, 'e', 17, 64))
		if math.Abs(v) < 1e15 && math.Abs(v) > 1e-15 {
			check(strconv.FormatFloat(v, 'f', -1, 64))
		}
		// The midpoint to the next float32 and its float64 neighbours:
		// where one rounding and two part ways.
		up := math.Float32frombits(bits + 1)
		if up-up != 0 {
			continue
		}
		mid := (v + float64(up)) / 2
		for _, m := range []float64{mid, math.Nextafter(mid, math.Inf(1)), math.Nextafter(mid, math.Inf(-1))} {
			check(strconv.FormatFloat(m, 'g', -1, 64))
			check(strconv.FormatFloat(m, 'e', 17, 64))
		}
	}
	// Overflow stays an error, underflow a signed zero.
	for _, tok := range []string{"3.4028236e38", "1e39", "-1e39", "1e400", "1e99999999999"} {
		if _, ok := parse32(t, tok); ok {
			t.Fatalf("%s accepted", tok)
		}
	}
	for _, tok := range []string{"3.4028235e38", "1e-46", "-1e-400", "-0", "0e999999999999", "1e-99999999999"} {
		if _, ok := parse32(t, tok); !ok {
			t.Fatalf("%s refused", tok)
		}
	}
}

// The reciprocal multiply is exact for every "0." token of 1 to 8 digits:
// fastFloat32 returns ParseFloat's bits for each of the 111,111,110 and
// declines none, so the token path never falls back on them.
func TestFastFloat32AllShortFractions(t *testing.T) {
	if testing.Short() {
		t.Skip("111,111,110 ParseFloat calls")
	}
	// One goroutine per digit count and first digit: 80 slices, the
	// largest 10^7 tokens.
	var wg sync.WaitGroup
	var checked atomic.Int64
	for n := 1; n <= 8; n++ {
		for first := byte('0'); first <= '9'; first++ {
			wg.Add(1)
			go func(n int, first byte) {
				defer wg.Done()
				tok := []byte("0." + strings.Repeat("0", n))
				tok[2] = first
				span := uint64(math.Pow10(n - 1))
				m := uint64(first-'0') * span
				for c := uint64(0); c < span; c, m = c+1, m+1 {
					want, err := strconv.ParseFloat(string(tok), 32)
					got, ok := fastFloat32(m, n, -n)
					if err != nil || !ok || math.Float32bits(got) != math.Float32bits(float32(want)) {
						t.Errorf("%s: ParseFloat gives %v (%v), fastFloat32(%d, %d, %d) %v (ok %v)",
							tok, float32(want), err, m, n, -n, got, ok)
						return
					}
					for k := len(tok) - 1; k > 2; k-- { // the next token
						if tok[k] < '9' {
							tok[k]++
							break
						}
						tok[k] = '0'
					}
				}
				checked.Add(int64(span))
			}(n, first)
		}
	}
	wg.Wait()
	if got := checked.Load(); !t.Failed() && got != 111111110 {
		t.Fatalf("checked %d tokens, want 111,111,110", got)
	}
}

// Where the reciprocal multiply misrounds, the ±4-ulp guard declines it.
// The decimal below lies within half a float64 ulp of the midpoint of two
// float32s, on the low side: its quotient by 10^15 rounds to the
// midpoint. RN(1e-15) puts the product 1 ulp above the midpoint, where it
// rounds up, so a guard on the midpoint alone would let it through.
func TestFastFloat32GuardDeclinesNearMidpoint(t *testing.T) {
	const tok, mant = "0.848978191614151", 848978191614151
	product := float64(mant) * negPow10[15]
	mid := float64(mant) / pow10[15]
	if math.Float64bits(mid)&(1<<29-1) != 1<<28 || math.Float64bits(product) != math.Float64bits(mid)+1 {
		t.Fatalf("%s: quotient %#x, product %#x; want a midpoint and the float64 above it",
			tok, math.Float64bits(mid), math.Float64bits(product))
	}
	want, _ := strconv.ParseFloat(tok, 32)
	if float32(product) == float32(want) {
		t.Fatalf("%s: the product rounds right; pick another victim", tok)
	}
	if _, ok := fastFloat32(mant, 15, -15); ok {
		t.Fatalf("fast path took %s", tok)
	}
	if _, ok := parse32(t, tok); !ok {
		t.Fatalf("%s refused", tok)
	}
}

// slowPixelsValue is pixelsValue without the token path: every pixel goes
// through scanFloat32. TestPixelTokenMatchesSlowPath holds the two equal.
func (d *clipDecoder) slowPixelsValue(i int, it *clipItem) int {
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
	at := it.off
	for {
		if i >= len(b) {
			return d.fail(i)
		}
		if c := b[i]; c == '-' || isDigit(c) {
			f, next := scanFloat32(b, i)
			if next < 0 {
				return d.fail(i)
			}
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

// pixelTokenEdges are the pixel spellings at the token path's edges: 6 to
// 10 fractional digits, and tokens that start like its shape but leave
// it, or are not numbers at all.
var pixelTokenEdges = []string{
	"0.123456", "0.1234567", "0.12345678", "0.123456789", "0.1234567891",
	"0.99999999", "0.999999999", "0.00000001", "0.000000001", "0.0",
	"0.12345678e5", "0.5E-3", "0.1234 ", "-0.5", "00.5", "0.", "0.,", "0.a", "0.1.2", "0.1:", "0.12345?", "0.5/",
	"0.848978191614151",
}

// The token path changes nothing but speed: on every array built from the
// edge spellings, and on every truncation of it (a token within
// tokenWindow bytes of the end, a body cut mid-token), and on the longer
// runBodies the pixel-run kernel takes, pixelsValue leaves the same
// pixels, count, first non-finite pixel, error offset and return value
// as slowPixelsValue, on both decode paths. Storage already holding
// pixels, as a repeated "pixels" key leaves it, takes the overwrite
// branch, and past what is written keeps them. And the token path does
// take its own shape, 9 digits included.
func TestPixelTokenMatchesSlowPath(t *testing.T) {
	for _, tok := range pixelTokenEdges {
		b := []byte(tok + ",0.5,0.25,0.5")
		if _, next := pixelToken(b, 0); (next > 0) != tokenShape.Match(b) {
			t.Fatalf("%s: token path returns %d", b, next)
		}
	}
	var bodies []string
	for _, tok := range pixelTokenEdges {
		bodies = append(bodies,
			"["+tok+",0.25,0.5]",
			"[0.5,0.25,"+tok+"]",
			"["+tok+"]",
			"[0.5,"+tok+",0.12345678,0.123456789,0.1234567]   ")
	}
	all := "[" + strings.Join(pixelTokenEdges, ",0.12345678,") + ",1e39,null,0.5]"
	for k := 0; k <= len(all); k++ {
		bodies = append(bodies, all[:k])
	}
	bodies = append(bodies, runBodies()...)
	decodeModes(t, func(t *testing.T) { pixelsMatchSlowPath(t, bodies) })
}

func pixelsMatchSlowPath(t *testing.T, bodies []string) {
	many := make([]float32, 500)
	for j := range many {
		many[j] = float32(j) + 0.25
	}
	for _, body := range bodies {
		for _, held := range [][]float32{nil, {9, 8, 7}, make([]float32, 64), many} {
			run := func(slow bool) (d *clipDecoder, it clipItem, next int) {
				d = &clipDecoder{body: []byte(body), pix: append([]float32(nil), held...)}
				it = clipItem{n: -1, nonFinite: -1}
				if slow {
					next = d.slowPixelsValue(0, &it)
				} else {
					next = d.pixelsValue(0, &it)
				}
				return d, it, next
			}
			fast, fastIt, fastNext := run(false)
			slow, slowIt, slowNext := run(true)
			if fastNext != slowNext || fastIt != slowIt || fast.errAt != slow.errAt || len(fast.pix) != len(slow.pix) {
				t.Fatalf("%q over %d held pixels: token path returns %d, %+v, errAt %d, %d pixels; slow path %d, %+v, errAt %d, %d pixels",
					body, len(held), fastNext, fastIt, fast.errAt, len(fast.pix), slowNext, slowIt, slow.errAt, len(slow.pix))
			}
			for i := range fast.pix {
				if math.Float32bits(fast.pix[i]) != math.Float32bits(slow.pix[i]) {
					t.Fatalf("%q: pixel %d is %v on the token path, %v on the slow path", body, i, fast.pix[i], slow.pix[i])
				}
			}
		}
	}
}

var (
	// numberPrefix is what scanDecimal consumes at the start of b: the
	// longest prefix that JSON's number grammar could still extend.
	numberPrefix = regexp.MustCompile(`^-?(?:0|[1-9][0-9]*)(?:\.[0-9]*)?(?:[eE][+-]?[0-9]*)?`)
	// numberToken is JSON's number grammar.
	numberToken = regexp.MustCompile(`^-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?$`)
	// tokenShape is the spelling pixelToken must take. Its guard declines
	// none of these: no 1- to 8-digit fraction (TestFastFloat32AllShortFractions),
	// and no 9-digit one lands within 4 ulp of a float32 midpoint (all 10^9
	// products were checked once, when the guard was chosen).
	tokenShape = regexp.MustCompile(`^0\.[0-9]{1,9},`)
)

// FuzzScanFloat32 checks scanFloat32 and pixelToken on arbitrary bytes
// against strconv.ParseFloat of the number JSON's grammar reads there:
// the same float32 bits and the same end, and a refusal where the grammar
// or float32's range refuses. Where the pixel-run kernel exists it also
// holds pixelRun from the same offset to the token loop.
func FuzzScanFloat32(f *testing.F) {
	run := strings.Repeat("0.12345678,0.1234567,", 4)
	for _, tok := range pixelTokenEdges {
		f.Add([]byte(tok + ",0.5,0.25,"))
		f.Add([]byte(tok + "]"))
		f.Add([]byte(tok + "," + run)) // long enough for pixelRun's window
		f.Add([]byte(run + tok + "," + run))
	}
	for _, tok := range []string{"1e39", "-1e-400", "3.4028235e38", "16777217", "8.000000476837159", "-0", "1E+2", "01", "1.", ".5", "-", ""} {
		f.Add([]byte(tok))
	}
	logKernelLeg(f)
	f.Fuzz(func(t *testing.T, b []byte) {
		if kernelMissing == "" {
			checkPixelRun(t, b, 0, 64)
		}
		got, next := scanFloat32(b, 0)
		tok := numberPrefix.Find(b)
		if tok == nil || !numberToken.Match(tok) {
			if next >= 0 {
				t.Fatalf("%q: not a JSON number, scanned as %v to %d", b, got, next)
			}
			return
		}
		want, err := strconv.ParseFloat(string(tok), 32)
		switch {
		case err != nil && next >= 0:
			t.Fatalf("%q: ParseFloat refuses %s (%v), scanned as %v to %d", b, tok, err, got, next)
		case err == nil && (next != len(tok) || math.Float32bits(got) != math.Float32bits(float32(want))):
			t.Fatalf("%q: ParseFloat gives %v for %s, scanned as %v to %d", b, float32(want), tok, got, next)
		}
		if len(b) < tokenWindow {
			return
		}
		v, after := pixelToken(b, 0)
		switch {
		case after > 0 && (next < 0 || after != next+1 || b[next] != ',' || math.Float32bits(v) != math.Float32bits(got)):
			t.Fatalf("%q: token path gives %v to %d, scanFloat32 %v to %d", b, v, after, got, next)
		case after == 0 && tokenShape.Match(b):
			t.Fatalf("%q: token path declined its own shape", b)
		}
	})
}

// detectReference builds the test model twice from one seed: one copy
// for the server, one to compute model.Detect references on.
func detectReference(t testing.TB, opts Options) (*Server, func(clip []byte) metrics.Detection) {
	t.Helper()
	cfg := model.OriginalSPPNet().Scaled(16).WithInput(4, 40)
	served, err := cfg.Build(rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := cfg.Build(rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewWithOptions(cfg, served, 0.5, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s, func(clip []byte) metrics.Detection {
		var req DetectRequest
		if err := json.Unmarshal(clip, &req); err != nil {
			t.Fatal(err)
		}
		return model.Detect(ref, tensor.FromSlice(req.Pixels, 1, req.Bands, req.Size, req.Size))[0]
	}
}

func sameHit(want metrics.Detection, got *Hit) bool {
	return got != nil && got.Box != nil && got.Score == want.Score && *got.Box == want.Box
}

// A warm server decodes a request into pooled storage: what one batch-16
// request allocates is request bookkeeping, the same for 256-pixel and
// 6,400-pixel clips.
func TestDecodeSteadyStateAllocs(t *testing.T) {
	decodeModes(t, decodeSteadyStateAllocs)
}

func decodeSteadyStateAllocs(t *testing.T) {
	s, _ := detectReference(t, Options{Replicas: 1, MaxBatch: 16})
	h := s.Handler()
	perRequest := func(size int) float64 {
		clips := make([][]byte, 16)
		for i := range clips {
			clips[i] = harnessClip(int64(i), size)
		}
		body := batchBody(clips...)
		post := func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/detect/batch", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				t.Fatalf("status %d: %s", rec.Code, rec.Body)
			}
		}
		for i := 0; i < 5; i++ {
			post() // warm the decoder pool and the replica's arena
		}
		return testing.AllocsPerRun(20, post)
	}
	small, large := perRequest(8), perRequest(40)
	t.Logf("allocations per batch-16 request: %.0f at 4×8×8, %.0f at 4×40×40", small, large)
	// 16 items × (tensor, context, done channel, hit, span events) plus
	// the recorder and the response encoder.
	const bound = 300
	if large > bound {
		t.Fatalf("%.0f allocations per batch-16 request, want ≤ %d", large, bound)
	}
	if large > small+32 {
		t.Fatalf("allocations grow with pixel count: %.0f at 4×8×8, %.0f at 4×40×40", small, large)
	}
}

// Requests whose deadline passes while the pool holds them leave their
// tensors with the pool: a replica may copy one after the handler has
// returned, and nothing orders a copy it has made before a later decode.
// Their storage must not be handed to the next request. With one replica
// and MaxBatch 1, requests wait behind the running one; deadlines of one
// to eight uncontended request times, under eight clients, land all along
// that wait and inside the forward pass. The race detector sees a
// recycled buffer as a decoder's write racing the replica's read. The
// span pipeline is off because every emit bumps one counter that handlers
// and replicas share: that would order the two accesses by accident, and
// the detector would pass a server that recycles.
func TestCancelledRequestDoesNotRecycleBuffers(t *testing.T) {
	s, reference := detectReference(t, Options{Replicas: 1, MaxBatch: 1, QueueSize: 256, Telemetry: telemetry.NewDisabled()})
	h := s.Handler()
	clips := make([][]byte, 4)
	want := make([]metrics.Detection, len(clips))
	for i := range clips {
		clips[i] = harnessClip(int64(40+i), 40)
		want[i] = reference(clips[i])
	}
	post := func(ctx context.Context, k int) (int, *Hit) {
		req := httptest.NewRequest(http.MethodPost, "/v1/detect", bytes.NewReader(clips[k])).WithContext(ctx)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		var hit Hit
		if rec.Code == http.StatusOK {
			if err := json.Unmarshal(rec.Body.Bytes(), &hit); err != nil {
				t.Errorf("clip %d: %v in %s", k, err, rec.Body)
			}
		}
		return rec.Code, &hit
	}
	alone := time.Hour // one request's time with the server to itself
	for i := 0; i < 3; i++ {
		start := time.Now()
		post(context.Background(), 0)
		alone = min(alone, time.Since(start))
	}

	var wg sync.WaitGroup
	var timedOut atomic.Int64
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for n := 0; n < 60; n++ {
				k := (c + n) % len(clips)
				if c%2 == 0 {
					if code, hit := post(context.Background(), k); code != http.StatusOK || !sameHit(want[k], hit) {
						t.Errorf("clip %d answered %d %+v, want %+v", k, code, hit, want[k])
					}
					continue
				}
				ctx, cancel := context.WithTimeout(context.Background(), alone*time.Duration(1+n%8))
				code, hit := post(ctx, k)
				cancel()
				switch {
				case code == http.StatusGatewayTimeout:
					timedOut.Add(1)
				case code != http.StatusOK || !sameHit(want[k], hit):
					t.Errorf("hurried clip %d answered %d %+v, want %+v or a timeout", k, code, hit, want[k])
				}
			}
		}(c)
	}
	wg.Wait()
	if timedOut.Load() == 0 {
		t.Fatal("no request timed out: the abandoned path was not exercised")
	}
}

func TestBodyCaps(t *testing.T) {
	s := testServer(t)
	h := s.Handler()
	// unsized hides the length, so the cap is found while reading.
	unsized := func(n int) io.Reader { return io.LimitReader(strings.NewReader(strings.Repeat(" ", n)), int64(n)) }
	for _, c := range []struct {
		route string
		limit int
		body  func(n int) io.Reader
	}{
		{"/v1/detect", maxClipBody, unsized},
		{"/v1/detect", maxClipBody, func(n int) io.Reader { return strings.NewReader(strings.Repeat(" ", n)) }},
		{"/v1/control/batching", maxControlBody, unsized},
		{"/v1/detect/batch", maxBatchBody, nil}, // 128 MiB: declared, not sent
	} {
		for _, over := range []int{0, 1} {
			var req *http.Request
			if c.body != nil {
				req = httptest.NewRequest(http.MethodPost, c.route, c.body(c.limit+over))
			} else {
				req = httptest.NewRequest(http.MethodPost, c.route, http.NoBody)
				req.ContentLength = int64(c.limit + over)
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			var env ErrorEnvelope
			if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
				t.Fatalf("%s: %v in %s", c.route, err, rec.Body)
			}
			// At the cap the (blank) body is read and refused as JSON.
			wantStatus, wantCode := http.StatusBadRequest, CodeBadJSON
			if over > 0 {
				wantStatus, wantCode = http.StatusRequestEntityTooLarge, CodePayloadTooLarge
			}
			if rec.Code != wantStatus || env.Error.Code != wantCode {
				t.Fatalf("%s with cap%+d bytes (sized %v): %d %s, want %d %s",
					c.route, over, req.ContentLength >= 0, rec.Code, env.Error.Code, wantStatus, wantCode)
			}
		}
	}
}

// Every item of a batch request opens its span when the request arrived,
// so the span covers the decode, and the decode lands in its histogram.
func TestBatchSpansStartAtHandlerEntry(t *testing.T) {
	var mu sync.Mutex
	var spans []telemetry.Span
	tel := telemetry.New(telemetry.Options{SampleEvery: 1, TraceSink: func(sp *telemetry.Span, _ []byte) {
		mu.Lock()
		defer mu.Unlock()
		spans = append(spans, *sp)
	}})
	s := testServerWith(t, Options{Telemetry: tel})
	before := time.Now()
	rec := httptest.NewRecorder()
	body := batchBody(harnessClip(1, 40), harnessClip(2, 40), harnessClip(3, 40))
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/detect/batch", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	tel.Flush()
	mu.Lock()
	defer mu.Unlock()
	if len(spans) != 3 {
		t.Fatalf("%d spans, want 3", len(spans))
	}
	for _, sp := range spans {
		if !sp.Accepted.Equal(spans[0].Accepted) {
			t.Fatalf("items of one request accepted at %v and %v", spans[0].Accepted, sp.Accepted)
		}
		if sp.Accepted.Before(before) || !sp.Accepted.Before(sp.Enqueued) {
			t.Fatalf("accepted %v, enqueued %v, request sent after %v", sp.Accepted, sp.Enqueued, before)
		}
	}
	decode := tel.Registry().Histogram("drainnet_decode_seconds", "", telemetry.TimeBuckets).Snapshot()
	if decode.Count != 3 || decode.Sum <= 0 {
		t.Fatalf("drainnet_decode_seconds has %d observations summing to %v, want 3", decode.Count, decode.Sum)
	}
}
