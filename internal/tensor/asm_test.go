package tensor

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// forbiddenMnemonics is `make check-asm`'s pattern: every instruction
// that would break an assembly kernel's bit-identity with the scalar
// loop it stands in for. The FMA family (VFMADD…, VFMSUB…, VFNMADD…,
// VFNMSUB…, and through those prefixes VFMADDSUB… and VFMSUBADD…) rounds
// once where the loops round twice; VPMADDUBSW saturates its int16 pair
// sum and VPDPBUSDS / VPDPWSSDS their int32 accumulator where the
// loops' integer sums are exact.
var forbiddenMnemonics = regexp.MustCompile(`VFN?M(ADD|SUB)|VPMADDUBSW|VPDPBUSDS|VPDPWSSDS`)

// The grep behind `make check-asm`, run by `go test ./...` so that tier 1
// catches a fused or saturating multiply-add without make: no line of
// this package's assembly, comments included, may name one.
func TestAssemblyHasNoFusedOrSaturatingMultiplyAdd(t *testing.T) {
	for _, m := range []string{"VFMADD231PS", "VFNMADD132PS", "VFMSUB213PS", "VFNMSUB231SS", "VFMSUBADD132PS", "VFMADDSUB231PD", "VPMADDUBSW", "VPDPBUSDS", "VPDPWSSDS"} {
		if !forbiddenMnemonics.MatchString(m) {
			t.Errorf("the pattern lets %s through", m)
		}
	}
	for _, m := range []string{"VMULPS", "VADDPS", "VPMADDWD", "VMAXPS", "VSUBPS"} {
		if forbiddenMnemonics.MatchString(m) {
			t.Errorf("the pattern rejects %s, which the kernels use or may use", m)
		}
	}
	files, err := filepath.Glob("*.s")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no assembly files found: the test no longer runs in the package directory")
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			if forbiddenMnemonics.MatchString(line) {
				t.Errorf("%s:%d: %s", f, i+1, strings.TrimSpace(line))
			}
		}
	}
}
