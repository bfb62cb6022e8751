package experiments

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goldenExperiments are the experiments whose every column is a counter or
// a model output, in the order testdata/small.golden holds them. The others
// print host wall-clock times.
var goldenExperiments = []string{"table2", "table3", "table4", "fig1", "fig11", "fig12", "fig13", "fig14", "fig15"}

// TestSmallScaleGolden pins the printed rows of the deterministic
// experiments at small scale, byte for byte. Regenerate after an
// intentional change with
//
//	MOBILESIM_GOLDEN=print go test -run TestSmallScaleGolden ./internal/experiments/
//
// which rewrites the file, so the change shows as its diff.
func TestSmallScaleGolden(t *testing.T) {
	var got bytes.Buffer
	opt := Options{Scale: ScaleSmall, HostThreads: 1}
	for _, name := range goldenExperiments {
		e, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Run(context.Background(), &got, opt); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	path := filepath.Join("testdata", "small.golden")
	if os.Getenv("MOBILESIM_GOLDEN") == "print" {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(gotLines), len(wantLines)); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("line %d:\ngot  %q\nwant %q", i+1, g, w)
		}
	}
}
