package lint

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	// citedTest matches a test, benchmark or fuzz target named in prose.
	citedTest = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z]\w*`)
	// declaredTest matches the declaration of one in a _test.go file.
	declaredTest = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	// designCite matches "DESIGN.md §6" and "DESIGN §6/§8", a comment line
	// break between the two included.
	designCite = regexp.MustCompile(`DESIGN(?:\.md)?[\s/]*((?:§\d+[/, ]*)+)`)
	sectionNum = regexp.MustCompile(`§(\d+)`)
	heading    = regexp.MustCompile(`(?m)^## (\d+)\. `)
)

// TestDesignAnchors holds the module's DESIGN.md to the anchors others rely
// on: every test it cites by name is declared in some _test.go of the
// repository, and every "DESIGN.md §N" cited from Go code or the repository's
// skill notes names a section the file has.
func TestDesignAnchors(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root := moduleRoot(wd)
	if root == "" {
		t.Fatal("no go.mod above the test's directory")
	}
	design, err := os.ReadFile(filepath.Join(root, "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	sections := map[string]bool{}
	for _, m := range heading.FindAllStringSubmatch(string(design), -1) {
		sections[m[1]] = true
	}

	declared := map[string]bool{}
	type cite struct{ file, text string }
	var cites []cite
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if d.Name() == "testdata" || (strings.HasPrefix(d.Name(), ".") && rel != "." && rel != ".claude") {
				return filepath.SkipDir
			}
			return nil
		}
		inSkills := strings.HasPrefix(rel, filepath.Join(".claude", "skills")+string(filepath.Separator))
		if !strings.HasSuffix(path, ".go") && !inSkills {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if strings.HasSuffix(path, "_test.go") {
			for _, m := range declaredTest.FindAllStringSubmatch(string(data), -1) {
				declared[m[1]] = true
			}
		}
		for _, m := range designCite.FindAllStringSubmatch(string(data), -1) {
			for _, n := range sectionNum.FindAllStringSubmatch(m[1], -1) {
				cites = append(cites, cite{rel, n[1]})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, name := range citedTest.FindAllString(string(design), -1) {
		if !declared[name] {
			t.Errorf("DESIGN.md cites %s, which no _test.go declares", name)
		}
	}
	for _, c := range cites {
		if !sections[c.text] {
			t.Errorf("%s cites DESIGN.md §%s, which has no \"## %s.\" heading", c.file, c.text, c.text)
		}
	}
	if len(cites) == 0 {
		t.Error("found no DESIGN.md section citations: the walk is broken")
	}
}
