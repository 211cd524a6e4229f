//go:build ignore

// Command deadcode lists the package-level functions and methods of this
// module that no binary links, and fails on any of them that the
// allowlist does not name. Run it from the repository root through
// scripts/deadcode.sh.
//
// It builds every cmd/ and examples/ binary and perfbench with inlining
// off (-gcflags=all=-l), so a function the binaries call keeps its own
// symbol, and reads the symbols back with `go tool nm`. The function list
// comes from go/ast over each package's default-build GoFiles, as
// `go list` reports them, so build-tagged twins (noobs) and test files do
// not count. A main package's functions are matched against its own
// binary only.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: go run scripts/deadcode.go <allowlist>")
		os.Exit(2)
	}
	dead, err := unlinked()
	if err == nil {
		err = report(dead, os.Args[1])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "deadcode:", err)
		os.Exit(2)
	}
}

// unlinked returns "name  file:line" for every function no binary links,
// sorted, where name is the nm form: import/path.F, import/path.T.M or
// import/path.(*T).M.
func unlinked() ([]string, error) {
	bin, err := os.MkdirTemp("", "deadcode")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(bin)
	if _, err := gocmd("", "build", "-gcflags=all=-l", "-o", bin+string(filepath.Separator), "./cmd/...", "./examples/..."); err != nil {
		return nil, err
	}
	if _, err := gocmd("perfbench", "build", "-gcflags=all=-l", "-o", filepath.Join(bin, "perfbench"), "."); err != nil {
		return nil, err
	}
	linked := map[string]bool{}           // every non-main symbol any binary holds
	mains := map[string]map[string]bool{} // binary name -> its main.* symbols
	entries, err := os.ReadDir(bin)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		out, err := gocmd("", "tool", "nm", filepath.Join(bin, e.Name()))
		if err != nil {
			return nil, err
		}
		own := map[string]bool{}
		for _, s := range textSymbols(out) {
			if rest, ok := strings.CutPrefix(s, "main."); ok {
				own[rest] = true
			} else {
				linked[s] = true
			}
		}
		mains[e.Name()] = own
	}

	out, err := gocmd("", "list", "-json", "./...")
	if err != nil {
		return nil, err
	}
	wd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	var dead []string
	for dec := json.NewDecoder(out); dec.More(); {
		var p struct {
			ImportPath, Name, Dir string
			GoFiles               []string
		}
		if err := dec.Decode(&p); err != nil {
			return nil, err
		}
		prefix, syms := p.ImportPath+".", linked
		if p.Name == "main" {
			prefix, syms = "", mains[filepath.Base(p.Dir)]
			if syms == nil {
				continue // a main package outside cmd/ and examples/
			}
		}
		fset, dir := token.NewFileSet(), strings.TrimPrefix(strings.TrimPrefix(p.Dir, wd), "/")
		for _, file := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, file), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Name.Name == "init" || fd.Name.Name == "_" {
					continue
				}
				name := fd.Name.Name
				if fd.Recv != nil {
					name = recvName(fd.Recv.List[0].Type) + "." + name
				}
				if !syms[prefix+name] {
					dead = append(dead, fmt.Sprintf("%s.%s  %s:%d", p.ImportPath, name,
						path.Join(dir, file), fset.Position(fd.Pos()).Line))
				}
			}
		}
	}
	sort.Strings(dead)
	return dead, nil
}

// report prints every unlinked name with its verdict and exits 1 when one
// is not allowlisted or an allowlist entry matches none. An entry is an
// exact name or a path.Match pattern ('*' stops at '/').
func report(dead []string, allowPath string) error {
	data, err := os.ReadFile(allowPath)
	if err != nil {
		return err
	}
	var allow []string
	for _, line := range strings.Split(string(data), "\n") {
		if entry, _, _ := strings.Cut(line, "#"); strings.TrimSpace(entry) != "" {
			allow = append(allow, strings.TrimSpace(entry))
		}
	}
	used := make([]bool, len(allow))
	failed := false
	for _, d := range dead {
		name, _, _ := strings.Cut(d, " ")
		tag := "UNLINKED"
		for i, a := range allow {
			ok, err := path.Match(a, name)
			if err != nil {
				return fmt.Errorf("%s: %q: %w", allowPath, a, err)
			}
			if ok || a == name {
				tag, used[i] = "allowed ", true
				break
			}
		}
		failed = failed || tag == "UNLINKED"
		fmt.Println(tag, d)
	}
	for i, a := range allow {
		if !used[i] {
			failed = true
			fmt.Printf("STALE    allowlist entry %q matches no unlinked function\n", a)
		}
	}
	if failed {
		fmt.Println("deadcode: delete each UNLINKED function or allowlist it with a reason; drop each STALE entry")
		os.Exit(1)
	}
	return nil
}

// gocmd runs the go tool in dir and returns its stdout.
func gocmd(dir string, args ...string) (*bytes.Buffer, error) {
	var out bytes.Buffer
	c := exec.Command("go", args...)
	c.Dir, c.Stdout, c.Stderr = dir, &out, os.Stderr
	if err := c.Run(); err != nil {
		return nil, fmt.Errorf("go %s: %w", strings.Join(args, " "), err)
	}
	return &out, nil
}

// nmLine splits a `go tool nm` line into its type letter and symbol name.
// The name is the whole rest of the line: shape names such as
// `go.shape.struct { a int }` contain spaces.
var nmLine = regexp.MustCompile(`^\s*[0-9a-f]*\s+([A-Za-z_])\s(.+)$`)

// textSymbols returns the text symbols of nm output with the type
// arguments of generic instantiations stripped, so `par.Map[go.shape.int]`
// and `x.(*T[go.shape.int]).M` read as `par.Map` and `x.(*T).M`.
func textSymbols(nm *bytes.Buffer) []string {
	var syms []string
	sc := bufio.NewScanner(nm)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		m := nmLine.FindStringSubmatch(sc.Text())
		if m == nil || (m[1] != "T" && m[1] != "t") {
			continue
		}
		var b strings.Builder
		depth := 0
		for _, r := range m[2] {
			switch {
			case r == '[':
				depth++
			case r == ']' && depth > 0:
				depth--
			case depth == 0:
				b.WriteRune(r)
			}
		}
		syms = append(syms, b.String())
	}
	return syms
}

// recvName renders a receiver type as nm does: T or (*T), type
// parameters dropped.
func recvName(e ast.Expr) string {
	star, ok := e.(*ast.StarExpr)
	if ok {
		e = star.X
	}
	switch x := e.(type) {
	case *ast.IndexExpr:
		e = x.X
	case *ast.IndexListExpr:
		e = x.X
	}
	name := fmt.Sprint(e)
	if ok {
		return "(*" + name + ")"
	}
	return name
}
