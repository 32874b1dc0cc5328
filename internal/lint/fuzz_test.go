package lint

import (
	"strings"
	"testing"
)

// FuzzParseDirective hardens the //nic: directive parser against malformed
// annotations: it must never panic, must only yield well-formed names with
// trimmed arguments, and re-rendering an accepted directive must parse back
// to the identical pair (the round-trip property every registry depends on).
func FuzzParseDirective(f *testing.F) {
	seeds := []string{
		"//nic:hotpath",
		"// nic:alloc spaced",
		"//nic:hashstable deadbeefcafe — trailing prose after the signature",
		"//nic:hashstable deadbeefcafe",
		"//nic:exhaustive",
		"//nic:nonexhaustive — trailing prose after a bare directive",
		"// not a directive",
		"//nic:",
		"//nic: spaced",
		"//nic:exhaustive\textra",
		"//nic:hashstable  double  spaces ",
		"/* nic:hotpath */",
		"//nic:bad!name args",
		"//nic:-leading-dash",
		"//nic:ok_name-2 a b c",
		"//\x00nic:x",
		"//nic:\xff",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		name, args := parseDirective(text)
		if name == "" {
			if args != "" {
				t.Fatalf("parseDirective(%q) rejected the name but kept args %q", text, args)
			}
			return
		}
		if !validDirectiveName(name) {
			t.Fatalf("parseDirective(%q) accepted ill-formed name %q", text, name)
		}
		if args != strings.TrimSpace(args) {
			t.Fatalf("parseDirective(%q) returned untrimmed args %q", text, args)
		}
		rendered := "//nic:" + name
		if args != "" {
			rendered += " " + args
		}
		name2, args2 := parseDirective(rendered)
		if name2 != name || args2 != args {
			t.Fatalf("round trip failed: %q -> (%q, %q) -> %q -> (%q, %q)",
				text, name, args, rendered, name2, args2)
		}
	})
}
