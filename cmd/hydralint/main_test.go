package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestVetToolLintsTestFiles builds hydralint and runs it the one way it
// runs, as `go vet -vettool`, over a throwaway module. The float product
// floatfma must flag sits only in test files: an in-package _test.go
// file and an external _test package of an internal/lp package. A clean
// package must pass.
func TestVetToolLintsTestFiles(t *testing.T) {
	if testing.Short() {
		t.Skip("builds hydralint and runs go vet")
	}
	tmp := t.TempDir()
	tool := filepath.Join(tmp, "hydralint")
	build := exec.Command("go", "build", "-o", tool, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	mod := filepath.Join(tmp, "mod")
	files := map[string]string{
		"go.mod":            "module example.com/vetcase\n\ngo 1.24\n",
		"clean/clean.go":    "package clean\n\n// Step rounds its product.\nfunc Step(a, b, c float64) float64 { return float64(a*b) + c }\n",
		"internal/lp/lp.go": "package lp\n\n// Step rounds its product.\nfunc Step(a, b, c float64) float64 { return float64(a*b) + c }\n",
		"internal/lp/in_test.go": "package lp\n\nimport \"testing\"\n\n" +
			"func TestIn(t *testing.T) {\n\ta, b, c := 1.5, 2.0, 3.0\n\tif a*b+c != Step(a, b, c) {\n\t\tt.Fatal(a)\n\t}\n}\n",
		"internal/lp/ext_test.go": "package lp_test\n\nimport (\n\t\"testing\"\n\n\t\"example.com/vetcase/internal/lp\"\n)\n\n" +
			"func TestExt(t *testing.T) {\n\ta, b, c := 1.5, 2.0, 3.0\n\tif c-a*b != lp.Step(-a, b, c) {\n\t\tt.Fatal(a)\n\t}\n}\n",
	}
	for name, src := range files {
		path := filepath.Join(mod, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	vet := func(pkg string) (string, int) {
		cmd := exec.Command("go", "vet", "-vettool="+tool, pkg)
		cmd.Dir = mod
		cmd.Env = append(os.Environ(), "GOFLAGS=", "GOTOOLCHAIN=local", "GOPROXY=off", "GOWORK=off")
		out, err := cmd.CombinedOutput()
		if ee, ok := err.(*exec.ExitError); ok {
			return string(out), ee.ExitCode()
		} else if err != nil {
			t.Fatalf("go vet %s: %v", pkg, err)
		}
		return string(out), 0
	}

	out, code := vet("./internal/lp")
	if code != 1 {
		t.Errorf("go vet ./internal/lp exit %d, want 1\n%s", code, out)
	}
	for _, where := range []string{"in_test.go:7", "ext_test.go:11"} {
		if !strings.Contains(out, where) || !strings.Contains(out, "(floatfma)") {
			t.Errorf("no floatfma finding at %s in:\n%s", where, out)
		}
	}
	if n := strings.Count(out, "(floatfma)"); n != 2 {
		t.Errorf("%d floatfma findings, want 2:\n%s", n, out)
	}

	if out, code := vet("./clean"); code != 0 {
		t.Errorf("go vet ./clean exit %d, want 0\n%s", code, out)
	}
}
