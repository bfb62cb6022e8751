package platform

import (
	"testing"

	"mobilesim/internal/asm"
)

// FuzzAsmParse feeds arbitrary guest assembly to the assembler, seeded
// with the platform firmware: every input up to 64 KiB assembles or
// returns an error, and none panics.
func FuzzAsmParse(f *testing.F) {
	f.Add(firmwareSource)
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 64<<10 {
			t.Skip()
		}
		if p, err := asm.Assemble(src, FirmwareBase); p == nil && err == nil {
			t.Error("neither a program nor an error")
		}
	})
}
