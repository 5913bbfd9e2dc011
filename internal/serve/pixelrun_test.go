package serve

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"drainnet/internal/tensor"
)

// kernelMissing names what this build, CPU or OS lacks for the pixel-run
// kernel, or is "" where it runs.
var kernelMissing = tensor.ByteKernelMissing()

// decodeModes runs f on the scalar loop (usePixelRun off) and then on the
// pixel-run kernel, as subtests; the kernel's leg skips, naming what is
// missing, where this build, CPU or OS lacks it.
func decodeModes(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	had := usePixelRun
	defer func() { usePixelRun = had }()
	usePixelRun = false
	t.Run("scalar", f)
	t.Run("avx512", func(t *testing.T) {
		skipWithoutPixelRun(t)
		usePixelRun = true
		f(t)
	})
}

// bothPaths is decodeModes for a fuzz target: check runs on the scalar
// loop and then, where it exists, on the kernel, without subtests — a
// subtest per input cost FuzzDecodeDetect 98% of its executions (134
// against 8,852 in 10 s). logKernelLeg names a missing kernel once.
func bothPaths(check func()) {
	had := usePixelRun
	defer func() { usePixelRun = had }()
	usePixelRun = false
	check()
	if kernelMissing == "" {
		usePixelRun = true
		check()
	}
}

func logKernelLeg(f *testing.F) {
	if kernelMissing != "" {
		f.Log("inputs run on the scalar loop only: this build, CPU or OS lacks " + kernelMissing)
	}
}

func skipWithoutPixelRun(t testing.TB) {
	t.Helper()
	if kernelMissing != "" {
		t.Skip("no pixel-run kernel: this build, CPU or OS lacks " + kernelMissing)
	}
}

// pixelRunLoop is pixelRun's contract spelled as a loop of pixelToken:
// window by window, the tokens ending at the window's first eight commas,
// while 64 bytes and 8 slots remain at a window's start, stopping before
// the first token pixelToken declines.
func pixelRunLoop(dst []float32, b []byte, i int) (k, next int) {
	// pixelToken reads tokenWindow bytes; what it reads past a token's
	// ',' does not change its answer, so a padded copy serves the tokens
	// that end near the end of b.
	pad := append(b[:len(b):len(b)], make([]byte, tokenWindow)...)
	next = i
	for len(b)-next >= 64 && len(dst)-k >= 8 {
		end, commas := next+64, 0
		for ; commas < 8; commas++ {
			comma := bytes.IndexByte(b[next:end], ',')
			if comma < 0 {
				break
			}
			f, after := pixelToken(pad, next)
			if after != next+comma+1 {
				return k, next
			}
			dst[k] = f
			k++
			next = after
		}
		if commas == 0 {
			break
		}
	}
	return k, next
}

// checkPixelRun holds pixelRun to pixelRunLoop on b from i into a dst
// of room slots: the same k, next and float32 bits, and every slot past
// k left as it was (the in-place case: held pixels survive).
func checkPixelRun(t *testing.T, b []byte, i, room int) {
	t.Helper()
	const held = 0x7fc01234 // a NaN no token spells
	want := make([]float32, room)
	got := make([]float32, room)
	for j := range want {
		want[j] = math.Float32frombits(held + uint32(j))
		got[j] = want[j]
	}
	wantK, wantNext := pixelRunLoop(want, b, i)
	gotK, gotNext := pixelRun(got, b, i)
	if gotK != wantK || gotNext != wantNext {
		t.Fatalf("%q from %d into %d slots: kernel converts %d to %d, the token loop %d to %d",
			b, i, room, gotK, gotNext, wantK, wantNext)
	}
	for j := range want {
		if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
			t.Fatalf("%q from %d: slot %d is %#x from the kernel, %#x from the token loop (k = %d)",
				b, i, j, math.Float32bits(got[j]), math.Float32bits(want[j]), gotK)
		}
	}
}

// fastToken spells "0." and d random digits: a pixel of the token
// shape for d from 1 to 9.
func fastToken(rng *rand.Rand, d int) string {
	var sb strings.Builder
	sb.WriteString("0.")
	for j := 0; j < d; j++ {
		sb.WriteByte(byte('0' + rng.Intn(10)))
	}
	return sb.String()
}

// harnessDigits draws a digit count with the harness pool's mix: 8
// digits for 63.7% of pixels, 7 for 30.6%, 6 for 3.0%, the rest 1 to 9.
func harnessDigits(rng *rand.Rand) int {
	switch p := rng.Float64(); {
	case p < 0.637:
		return 8
	case p < 0.943:
		return 7
	case p < 0.973:
		return 6
	}
	return 1 + rng.Intn(9)
}

// nonFastTokens leave the token shape: whitespace after a comma, an
// integer, a sign, an exponent, a literal, the array's end, a non-digit
// among the digits, no digits, too many digits.
var nonFastTokens = []string{
	" 0.5", "\n0.25", "1", "0", "-0.5", "0.5e3", "0.12345678E-2", "null", "]",
	"0.12a45", "0.1.2", "0.,", "0.", "0.1234567890", "0.12345678901", "00.5", ".5", "0:5", "0.5 ",
}

// The kernel against the token loop on the inputs its windows can trip
// over: every digit count from 0 to 11 at every alignment, each
// non-fast token at every offset of a window, bodies cut at every byte,
// and destinations with fewer than eight free slots.
func TestPixelRunMatchesTokenLoop(t *testing.T) {
	skipWithoutPixelRun(t)
	rng := rand.New(rand.NewSource(38))
	run := func(n int) string {
		toks := make([]string, n)
		for j := range toks {
			toks[j] = fastToken(rng, harnessDigits(rng))
		}
		return strings.Join(toks, ",")
	}

	// 0 to 11 digits, each after every prefix length from 0 to 70 bytes.
	for d := 0; d <= 11; d++ {
		tok := "0." + strings.Repeat("7", d)
		if d > 0 {
			tok = fastToken(rng, d)
		}
		for pre := 0; pre <= 70; pre++ {
			body := strings.Repeat("0", pre) + "," + tok + "," + run(30)
			for _, i := range []int{0, pre + 1} {
				checkPixelRun(t, []byte(body), i, 64)
			}
			same := strings.Repeat(tok+",", 12) + run(10)
			checkPixelRun(t, []byte(same), 0, 64)
		}
	}

	// Each non-fast token after every number of fast ones up to 14 (past
	// the first window), behind a prefix that slides it over every byte
	// offset of the window.
	for _, bad := range nonFastTokens {
		for before := 0; before <= 14; before++ {
			for shift := 0; shift < 12; shift++ {
				body := fastToken(rng, 1+shift%9) + "," + run(before) + "," + bad + "," + run(20)
				checkPixelRun(t, []byte(body), 0, 64)
			}
		}
	}

	// A body cut at every byte, started at every one of its first bytes.
	body := []byte(run(8) + ",0.5 ,0.25," + run(12) + ",-0.5," + run(6) + "]")
	for cut := 0; cut <= len(body); cut++ {
		for i := 0; i <= 12 && i <= cut; i++ {
			checkPixelRun(t, body[:cut], i, 64)
		}
	}

	// Destinations of 0 to 24 slots over runs of 1- and 9-digit tokens.
	for room := 0; room <= 24; room++ {
		checkPixelRun(t, []byte(run(40)), 0, room)
		checkPixelRun(t, []byte(strings.Repeat("0.5,", 40)), 0, room)
		checkPixelRun(t, []byte(strings.Repeat("0.123456789,", 40)), 0, room)
	}

	// Random mixes: mostly fast tokens, now and then any other.
	for trial := 0; trial < 2000; trial++ {
		toks := make([]string, 10+rng.Intn(40))
		for j := range toks {
			if rng.Intn(25) == 0 {
				toks[j] = nonFastTokens[rng.Intn(len(nonFastTokens))]
			} else {
				toks[j] = fastToken(rng, harnessDigits(rng))
			}
		}
		checkPixelRun(t, []byte(strings.Join(toks, ",")), 0, 8+rng.Intn(64))
	}
}

// runBodies are pixel arrays long enough for pixelRun: 300 pixels of the
// harness's digit mix with pixels of other spellings among them, whole,
// cut at every byte of the last 200 and every third byte of the first
// 400, and two that end in whitespace before ',' and in a trailing ','.
func runBodies() []string {
	rng := rand.New(rand.NewSource(26))
	toks := make([]string, 300)
	for j := range toks {
		toks[j] = fastToken(rng, harnessDigits(rng))
	}
	other := []string{" 0.5", "1", "0", "-0.5", "0.5e3", "null", "0.1234567890", "0.12345678E-2", "0.5 "}
	for n, j := range []int{40, 41, 90, 170, 171, 172, 250} {
		toks[j] = other[n%len(other)]
	}
	all := "[" + strings.Join(toks, ",") + ",1e39,null,0.5]"
	bodies := []string{"[" + strings.Join(toks[:60], ",") + ",0.5 ,0.25]", "[" + strings.Join(toks[:100], ",") + ",0.5,]"}
	for cut := len(all) - 200; cut <= len(all); cut++ {
		bodies = append(bodies, all[:cut])
	}
	for cut := 0; cut < 400; cut += 3 {
		bodies = append(bodies, all[:cut])
	}
	return bodies
}

// FuzzPixelRun holds pixelRun to pixelRunLoop on arbitrary bytes, start
// offsets and destination sizes.
func FuzzPixelRun(f *testing.F) {
	skipWithoutPixelRun(f)
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{6, 20, 60} {
		toks := make([]string, n)
		for j := range toks {
			toks[j] = fastToken(rng, harnessDigits(rng))
		}
		run := strings.Join(toks, ",")
		f.Add([]byte(run), uint8(0), uint8(64))
		for _, bad := range nonFastTokens {
			f.Add([]byte(toks[0]+","+toks[1]+","+bad+","+run), uint8(0), uint8(64))
		}
		f.Add([]byte(run), uint8(3), uint8(9))
	}
	f.Add([]byte(strings.Repeat("0.123456789,", 20)), uint8(0), uint8(7))
	f.Add([]byte(string(harnessClip(1, 8))[30:]), uint8(2), uint8(200))
	f.Fuzz(func(t *testing.T, b []byte, start, room uint8) {
		i := 0
		if len(b) > 0 {
			i = int(start) % (len(b) + 1)
		}
		checkPixelRun(t, b, i, int(room))
	})
}

// pixelRunBody is n tokens of d digits each (d 0: the harness mix),
// with a non-fast token every every pixels (0: none).
func pixelRunBody(n, d, every int) []byte {
	rng := rand.New(rand.NewSource(int64(n + d + every)))
	toks := make([]string, n)
	for j := range toks {
		switch {
		case every > 0 && j%every == every-1:
			toks[j] = "1e-3"
		case d > 0:
			toks[j] = fastToken(rng, d)
		default:
			toks[j] = fastToken(rng, harnessDigits(rng))
		}
	}
	return []byte("[" + strings.Join(toks, ",") + "]")
}

// BenchmarkPixelRun decodes one clip's 6,400 pixels on each path, for
// three token mixes: all 8 digits, the harness pool's digit mix, and a
// non-fast token every 16 pixels.
func BenchmarkPixelRun(b *testing.B) {
	const n = 6400
	for _, mix := range []struct {
		name     string
		d, every int
	}{{"digits8", 8, 0}, {"harness", 0, 0}, {"nonfast16", 0, 16}} {
		body := pixelRunBody(n, mix.d, mix.every)
		for _, leg := range []struct {
			name string
			on   bool
		}{{"scalar", false}, {"avx512", true}} {
			b.Run(fmt.Sprintf("%s/%s", mix.name, leg.name), func(b *testing.B) {
				if leg.on {
					skipWithoutPixelRun(b)
				}
				had := usePixelRun
				defer func() { usePixelRun = had }()
				usePixelRun = leg.on
				d := &clipDecoder{body: body, pix: make([]float32, 0, n)}
				b.SetBytes(int64(len(body)))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					d.pix = d.pix[:0]
					var it clipItem
					if d.pixelsValue(0, &it) < 0 || it.n != n {
						b.Fatalf("decoded %d pixels, error at %d", it.n, d.errAt)
					}
				}
			})
		}
	}
}
