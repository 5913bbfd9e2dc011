package tensor

import (
	"io/fs"
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
// once where the loops round twice, and so do the AVX-512 relatives: the
// four-iteration V4FMADD… / V4FNMADD…, the FP16 complex multiply(-add)s
// VFMADDC… / VFCMADDC… / VFMULC… / VFCMULC…, and the BF16 dot product
// VDPBF16PS. VPMADDUBSW saturates its int16 pair sum and VPDPBUSDS /
// VPDPWSSDS / VP4DPWSSDS their int32 accumulator where the loops'
// integer sums are exact. A directed embedded rounding (Go's .RU_SAE,
// .RD_SAE, .RZ_SAE suffixes) replaces the round-to-nearest every scalar
// operation uses. The non-saturating VPDPWSSD stays allowed: like
// VPMADDWD + VPADDD it is exact modulo 2³², and the sums never reach that.
var forbiddenMnemonics = regexp.MustCompile(`VFN?M(ADD|SUB)|VPMADDUBSW|VPDPBUSDS|VPDPWSSDS|V4FN?MADD|VP4DPWSSDS|VFC?MADDC|VFC?MULC|VDPBF16PS|\.R[UDZ]_SAE`)

// The grep behind `make check-asm`, run by `go test ./...` so that tier 1
// catches a fused or saturating multiply-add without make: no line of
// the module's assembly, comments included, may name one.
func TestAssemblyHasNoFusedOrSaturatingMultiplyAdd(t *testing.T) {
	for _, m := range []string{"VFMADD231PS", "VFNMADD132PS", "VFMSUB213PS", "VFNMSUB231SS", "VFMSUBADD132PS", "VFMADDSUB231PD", "VPMADDUBSW", "VPDPBUSDS", "VPDPWSSDS",
		"V4FMADDPS", "V4FNMADDSS", "VP4DPWSSDS", "VFMADDCPH", "VFCMADDCSH", "VFMULCPH", "VFCMULCSH", "VDPBF16PS",
		"VADDPS.RU_SAE Z1, Z2, Z3", "VMULPS.RD_SAE Z1, Z2, Z3", "VCVTDQ2PS.RZ_SAE Z1, Z2"} {
		if !forbiddenMnemonics.MatchString(m) {
			t.Errorf("the pattern lets %s through", m)
		}
	}
	for _, m := range []string{"VMULPS", "VADDPS", "VPMADDWD", "VMAXPS", "VMAXSS", "VSUBPS", "VPDPWSSD Z1, Z2, Z3", "VADDPS.RN_SAE Z1, Z2, Z3", "VPADDD", "VPERMT2PS"} {
		if forbiddenMnemonics.MatchString(m) {
			t.Errorf("the pattern rejects %s, which the kernels use or may use", m)
		}
	}
	files := moduleAssembly(t)
	if len(files) == 0 {
		t.Fatal("no assembly files found under the module root")
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

// moduleAssembly lists every .s file of the module: the tree two levels
// above this package's directory, without directories starting with '.'
// or holding a go.mod of their own (another module).
func moduleAssembly(t *testing.T) []string {
	t.Helper()
	root := filepath.Join("..", "..")
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("the module root is not two levels up: %v", err)
	}
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root {
			if strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		if !d.IsDir() && strings.HasSuffix(path, ".s") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}
