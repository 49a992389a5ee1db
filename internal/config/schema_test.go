package config_test

import (
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"speakup/internal/appsim"
	"speakup/internal/config"
	"speakup/internal/core"
	"speakup/internal/scenario"
)

// hookOwned are the fields the copy leaves to Config and FromScenario:
// the document's header, mode (a string over appsim.Mode), the hetero
// section (core.Config's Quantum and AbortAfter), and the tracer, which
// is set programmatically and never written to a file.
var hookOwned = map[string]bool{
	"config.Scenario.Version": true,
	"config.Scenario.Name":    true,
	"config.Scenario.Notes":   true,
	"config.Scenario.Mode":    true,
	"config.Scenario.Hetero":  true,
	"scenario.Config.Mode":    true,
	"scenario.Config.Trace":   true,
	"core.Config.Quantum":     true,
	"core.Config.AbortAfter":  true,
}

// kindOf is t's kind through a pointer, as the copy compares kinds.
func kindOf(t reflect.Type) reflect.Kind {
	if t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	return t.Kind()
}

// structOf is the struct type behind a pointer or slice, or nil.
func structOf(t reflect.Type) reflect.Type {
	for t.Kind() == reflect.Pointer || t.Kind() == reflect.Slice {
		t = t.Elem()
	}
	if t.Kind() != reflect.Struct {
		return nil
	}
	return t
}

// TestEverySchemaFieldIsCopied keeps the schema structs and the runtime
// structs in step. The document copies to scenario.Config, and a
// thinner section to core.Config, by field name. So every exported
// field on either side needs a same-named partner of the same kind, or
// must be one the hooks own; otherwise a field added on one side only
// would drop silently out of files, hashes and round trips.
func TestEverySchemaFieldIsCopied(t *testing.T) {
	var walk func(doc, run reflect.Type)
	walk = func(doc, run reflect.Type) {
		for _, side := range [][2]reflect.Type{{doc, run}, {run, doc}} {
			from, to := side[0], side[1]
			for _, f := range reflect.VisibleFields(from) {
				name := from.String() + "." + f.Name
				if !f.IsExported() || hookOwned[name] {
					continue
				}
				g, ok := to.FieldByName(f.Name)
				switch {
				case !ok:
					t.Errorf("%s has no field of the same name in %s", name, to)
				case kindOf(f.Type) != kindOf(g.Type):
					t.Errorf("%s is a %s but %s.%s is a %s", name, kindOf(f.Type), to, g.Name, kindOf(g.Type))
				case from == doc && structOf(f.Type) != nil:
					walk(structOf(f.Type), structOf(g.Type))
				}
			}
		}
	}
	walk(reflect.TypeOf(config.Scenario{}), reflect.TypeOf(scenario.Config{}))
	walk(reflect.TypeOf(config.Thinner{}), reflect.TypeOf(core.Config{}))
}

// TestCopyHooks pins the schema's explicit quirks around the copy: the
// hetero section loads into core.Config (its orphan_timeout over the
// thinner section's), a section whose copy is all zero is omitted even
// when its source is not, and mode travels as a string.
func TestCopyHooks(t *testing.T) {
	doc := config.Scenario{
		Version: config.Version, Capacity: 10, Mode: "hetero",
		Groups:  []config.ClientGroup{{Count: 1, Good: true, LinkDelay: config.Duration(time.Millisecond)}},
		Thinner: &config.Thinner{OrphanTimeout: config.Duration(5 * time.Second), Shards: 4},
		Hetero:  &config.Hetero{Tau: config.Duration(time.Second), OrphanTimeout: config.Duration(7 * time.Second)},
	}
	sc, err := doc.Config()
	if err != nil {
		t.Fatal(err)
	}
	want := core.Config{OrphanTimeout: 7 * time.Second, Shards: 4, Quantum: time.Second}
	if sc.Mode != appsim.ModeHetero || sc.Thinner != want || sc.Groups[0].LinkDelay != time.Millisecond {
		t.Fatalf("Config() = mode %v thinner %+v groups %+v", sc.Mode, sc.Thinner, sc.Groups)
	}
	back := config.FromScenario(scenario.Config{Thinner: core.Config{Quantum: time.Second}})
	if back.Thinner != nil || back.Hetero == nil || back.Hetero.Tau.D() != time.Second || back.Mode != "off" {
		t.Fatalf("FromScenario(quantum only) = thinner %+v hetero %+v mode %q", back.Thinner, back.Hetero, back.Mode)
	}
	if back.Sizes != nil || back.RandomDrop != nil || back.Profiler != nil || back.Bystander != nil || back.Groups != nil {
		t.Fatalf("zero sections not omitted: %+v", back)
	}
}

// TestREADMEListsEverySchemaField requires the README to name every
// JSON field of the document inside a backtick span (`groups[]` and
// `sizes.post` count), so plain English words ("request", "delay") do
// not count as documentation.
func TestREADMEListsEverySchemaField(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	named := map[string]bool{}
	for _, span := range regexp.MustCompile("`[^`\n]*`").FindAllString(string(readme), -1) {
		for _, w := range regexp.MustCompile(`[\w-]+`).FindAllString(span, -1) {
			named[w] = true
		}
	}
	seen := map[reflect.Type]bool{}
	var walk func(reflect.Type)
	walk = func(typ reflect.Type) {
		if seen[typ] {
			return
		}
		seen[typ] = true
		for _, f := range reflect.VisibleFields(typ) {
			name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			if name == "" || name == "-" {
				continue
			}
			if !named[name] {
				t.Errorf("README.md does not list the %s field `%s`", typ, name)
			}
			if s := structOf(f.Type); s != nil {
				walk(s)
			}
		}
	}
	walk(reflect.TypeOf(config.Scenario{}))
}
