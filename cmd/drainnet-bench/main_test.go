package main

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// repoRoot is the module root, two levels above this package.
const repoRoot = "../.."

// docs returns the files whose commands a reader copies — the top-level
// guides and every skill note (SKILL.md) — keyed by path.
func docs(t *testing.T) map[string]string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(repoRoot, ".*", "skills", "*", "SKILL.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		paths = append(paths, filepath.Join(repoRoot, name))
	}
	out := map[string]string{}
	for _, p := range paths {
		buf, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out[p] = string(buf)
	}
	return out
}

// Every `make <target>` the docs name must be a Makefile target: a
// deleted target must take its mentions with it.
func TestDocsNameOnlyExistingMakeTargets(t *testing.T) {
	mk, err := os.ReadFile(filepath.Join(repoRoot, "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^([a-z][a-z0-9-]*):`).FindAllStringSubmatch(string(mk), -1) {
		targets[m[1]] = true
	}
	mention := regexp.MustCompile("(?m)(?:`|^)make ([a-z][a-z0-9-]*)")
	for path, text := range docs(t) {
		for _, m := range mention.FindAllStringSubmatch(text, -1) {
			if !targets[m[1]] {
				t.Errorf("%s names `make %s`, which the Makefile does not define", path, m[1])
			}
		}
	}
}

// Every `drainnet-bench -exp <id>` the docs name must be a study.
func TestDocsNameOnlyExistingStudies(t *testing.T) {
	known := map[string]bool{"all": true}
	for _, id := range studyIDs() {
		known[id] = true
	}
	mention := regexp.MustCompile(`drainnet-bench -exp ([a-z][a-z0-9-]*)`)
	for path, text := range docs(t) {
		for _, m := range mention.FindAllStringSubmatch(text, -1) {
			if !known[m[1]] {
				t.Errorf("%s names `drainnet-bench -exp %s`, which is not a study", path, m[1])
			}
		}
	}
}

// -exp's help text and the package comment's "Studies:" list must name
// exactly the studies the table holds.
func TestHelpAndPackageCommentListEveryStudy(t *testing.T) {
	want := studyIDs()
	sort.Strings(want)
	same := func(label string, got []string) {
		sort.Strings(got)
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("%s lists %v, want %v", label, got, want)
		}
	}

	usage := flag.Lookup("exp").Usage
	lo, hi := strings.Index(usage, "("), strings.Index(usage, ")")
	if lo < 0 || hi < lo {
		t.Fatalf("-exp usage %q has no (id,...) list", usage)
	}
	same("-exp help", strings.Split(usage[lo+1:hi], ","))

	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?s)// Studies: (.*?)\.\n`).FindSubmatch(src)
	if m == nil {
		t.Fatal("package comment has no \"Studies:\" line")
	}
	var ids []string
	for _, f := range strings.Split(strings.ReplaceAll(string(m[1]), "//", ""), ",") {
		ids = append(ids, strings.TrimSpace(f))
	}
	same("package comment", ids)
}
