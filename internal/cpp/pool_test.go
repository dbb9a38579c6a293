package cpp_test

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/apidb"
	"repro/internal/clex"
	"repro/internal/cpp"
)

// TestPooledLinesNeverLeak: a translation unit is lexed into pooled line
// storage that the next unit reuses, so a macro defined in a unit must own
// its body. The reference defines the same macros in a header served
// through a header cache, whose lines are retained and aliased; after other
// units have gone through the pool, the unit's macro bodies and its
// discovery observation must still equal the reference's.
func TestPooledLinesNeverLeak(t *testing.T) {
	const defs = `#define for_each_widget(parent, w) \
	for (w = widget_first(parent); w; w = widget_next(parent, w))
#define WIDGET_MAX 16
#define widget_put(w) put_ref(&(w)->ref)
`
	ref := cpp.New(cpp.MapFiles{"include/widget.h": defs}).
		WithHeaderCache(cpp.NewHeaderCache()).
		Process("ref.c", `#include "include/widget.h"`)
	unit := cpp.New(nil).Process("a.c", defs)
	// Other units, larger than the first, go through the same pool.
	for i := 0; i < 4; i++ {
		cpp.New(nil).Process("b.c", strings.Repeat("int other_unit(void) { return WIDGET_MAX + 1; }\n", 64))
	}

	body := func(m *cpp.Macro) []clex.Token {
		out := make([]clex.Token, len(m.Body))
		for i, tok := range m.Body {
			tok.Pos.File = "" // the two routes name different files
			out[i] = tok
		}
		return out
	}
	if len(unit.Macros) != 3 || len(ref.Macros) != 3 {
		t.Fatalf("macros: unit %d, reference %d, want 3 each", len(unit.Macros), len(ref.Macros))
	}
	for name, want := range ref.Macros {
		got := unit.Macros[name]
		if got == nil || len(want.Body) == 0 || !reflect.DeepEqual(body(got), body(want)) {
			t.Errorf("%s: body changed after later units reused the pool", name)
		}
	}
	got, want := apidb.ObserveFile("a.c", nil, unit.Macros), apidb.ObserveFile("a.c", nil, ref.Macros)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("observation changed after later units reused the pool:\n got %+v\nwant %+v", got, want)
	}
	if len(want.Macros) != 3 || !want.Macros[1].Loop { // sorted: WIDGET_MAX, for_each_widget, widget_put
		t.Fatalf("reference observation %+v lacks the loop macro", want.Macros)
	}
}
