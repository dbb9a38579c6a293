package apidb

import (
	"reflect"
	"testing"

	"repro/internal/cast"
	"repro/internal/cparse"
	"repro/internal/cpp"
)

func TestSeededLookups(t *testing.T) {
	db := New()
	cases := []struct {
		name  string
		op    Op
		class Class
	}{
		{"kref_get", OpInc, General},
		{"kref_put", OpDec, General},
		{"of_node_get", OpInc, Specific},
		{"of_node_put", OpDec, Specific},
		{"of_find_matching_node", OpInc, Embedded},
		{"pm_runtime_get_sync", OpInc, Embedded},
		{"bus_find_device", OpInc, Embedded},
	}
	for _, c := range cases {
		a := db.Lookup(c.name)
		if a == nil {
			t.Errorf("%s: not found", c.name)
			continue
		}
		if a.Op != c.op || a.Class != c.class {
			t.Errorf("%s: op=%v class=%v, want %v %v", c.name, a.Op, a.Class, c.op, c.class)
		}
	}
	if db.Lookup("not_an_api") != nil {
		t.Error("unexpected hit for unknown name")
	}
}

func TestDeviationFlags(t *testing.T) {
	db := New()
	if a := db.Lookup("pm_runtime_get_sync"); !a.IncOnError {
		t.Error("pm_runtime_get_sync must be IncOnError")
	}
	if a := db.Lookup("kobject_init_and_add"); !a.IncOnError {
		t.Error("kobject_init_and_add must be IncOnError")
	}
	if a := db.Lookup("mdesc_grab"); !a.MayReturnNull || !a.ReturnsRef {
		t.Error("mdesc_grab must be MayReturnNull + ReturnsRef")
	}
	if a := db.Lookup("of_find_matching_node"); !a.HasDecArg || a.DecArgObj != 0 {
		t.Errorf("of_find_matching_node cursor = %v/%d, want arg 0 (puts its from cursor)", a.HasDecArg, a.DecArgObj)
	}
	if a := db.Lookup("of_find_node_by_path"); a.HasDecArg {
		t.Error("of_find_node_by_path must not have a cursor dec")
	}
}

func TestPairing(t *testing.T) {
	db := New()
	for _, name := range []string{"of_node_get", "of_find_compatible_node"} {
		a := db.Lookup(name)
		if p := db.apis[a.Pair]; p == nil || p.Name != "of_node_put" {
			t.Fatalf("pair of %s = %v", name, p)
		}
	}
}

func TestSmartLoops(t *testing.T) {
	db := New()
	l := db.Loop("for_each_child_of_node")
	if l == nil {
		t.Fatal("for_each_child_of_node missing")
	}
	if l.IterArg != 1 || l.PutAPI != "of_node_put" {
		t.Errorf("loop = %+v", l)
	}
	if db.Loop("for_each_matching_node").IterArg != 0 {
		t.Error("for_each_matching_node iter arg")
	}
	if db.Loop("not_a_loop") != nil {
		t.Error("unknown loop should be nil")
	}
}

func TestCallbackPairs(t *testing.T) {
	db := New()
	var found bool
	for _, cb := range db.Callbacks() {
		if cb.Struct == "platform_driver" && cb.Acquire == "probe" && cb.Release == "remove" {
			found = true
		}
	}
	if !found {
		t.Error("platform_driver probe/remove pair missing")
	}
}

func TestKeywordOp(t *testing.T) {
	cases := map[string]Op{
		"of_node_get":    OpInc,
		"of_node_put":    OpDec,
		"dev_hold":       OpInc,
		"mdesc_grab":     OpInc,
		"sock_put":       OpDec,
		"mdesc_release":  OpDec,
		"netdev_drop":    OpDec,
		"plain_function": OpNone,
		"getter_thing":   OpNone, // "getter" is not the keyword "get"
		"usb_serial_put": OpDec,
		// dec keywords win when both appear ("get... put" helpers).
		"get_put_helper": OpDec,
	}
	for name, want := range cases {
		if got := KeywordOp(name); got != want {
			t.Errorf("KeywordOp(%q) = %v, want %v", name, got, want)
		}
	}
}

func TestTable6Consistency(t *testing.T) {
	db := New()
	for _, row := range Table6() {
		for _, name := range row.APIs {
			switch row.BugType {
			case "Return-Error":
				a := db.Lookup(name)
				if a == nil || !a.IncOnError {
					t.Errorf("%s: want IncOnError entry", name)
				}
			case "Return-NULL":
				a := db.Lookup(name)
				if a == nil || !a.MayReturnNull {
					t.Errorf("%s: want MayReturnNull entry", name)
				}
			case "Complete-Hidden":
				if db.Loop(name) == nil {
					t.Errorf("%s: want smartloop entry", name)
				}
			case "Inc./Dec.-Hidden":
				a := db.Lookup(name)
				if a == nil || a.Op == OpNone {
					t.Errorf("%s: want hidden refcounting entry", name)
				}
			}
		}
	}
}

func parseFiles(t *testing.T, srcs ...string) []*cast.File {
	t.Helper()
	var out []*cast.File
	for i, src := range srcs {
		pp := cpp.New(nil)
		res := pp.Process("t.c", src)
		f, errs := cparse.ParseFile("t.c", res.Tokens)
		for _, e := range errs {
			t.Fatalf("src %d parse: %v", i, e)
		}
		out = append(out, f)
	}
	return out
}

// apply runs discovery over parsed files through its one entry point:
// observe each file, then replay the observations in file order.
func apply(db *DB, files []*cast.File) Discovery {
	obs := make([]FileObs, len(files))
	for i, f := range files {
		obs[i] = ObserveFile(f.Name, f, nil)
	}
	return db.Apply(obs)
}

func TestDiscoverStructs(t *testing.T) {
	files := parseFiles(t, `
struct my_obj { refcount_t refs; int data; };
struct wrapper { struct my_obj obj; };
struct deep { struct wrapper w; };
struct unrelated { int x; };
`)
	db := New()
	added := apply(db, files).Structs
	if len(added) != 3 {
		t.Fatalf("added = %v", added)
	}
	for _, want := range []string{"my_obj", "wrapper", "deep"} {
		if !db.IsRefStruct(want) {
			t.Errorf("%s should be refcounted", want)
		}
	}
	if db.IsRefStruct("unrelated") {
		t.Error("unrelated should not be refcounted")
	}
}

func TestDiscoverStructsThreshold(t *testing.T) {
	// Chain deeper than NestingThreshold stops propagating.
	files := parseFiles(t, `
struct l0 { refcount_t refs; };
struct l1 { struct l0 a; };
struct l2 { struct l1 a; };
struct l3 { struct l2 a; };
struct l4 { struct l3 a; };
struct l5 { struct l4 a; };
`)
	db := New()
	apply(db, files)
	if !db.IsRefStruct("l0") || !db.IsRefStruct("l1") {
		t.Error("shallow levels should be refcounted")
	}
	if db.IsRefStruct("l5") {
		t.Error("l5 exceeds the nesting threshold")
	}
}

func TestDiscoverWrapperAPIs(t *testing.T) {
	files := parseFiles(t, `
struct foo_dev { struct kref ref; };
void foo_get(struct foo_dev *d)
{
	kref_get(&d->ref);
}
void foo_put(struct foo_dev *d)
{
	kref_put(&d->ref);
}
int unrelated(int x) { return x + 1; }
`)
	db := New()
	added := apply(db, files).APIs
	if len(added) != 2 {
		t.Fatalf("added = %v", added)
	}
	g := db.Lookup("foo_get")
	if g == nil || g.Op != OpInc || !g.Discovered {
		t.Fatalf("foo_get = %+v", g)
	}
	p := db.Lookup("foo_put")
	if p == nil || p.Op != OpDec {
		t.Fatalf("foo_put = %+v", p)
	}
	if db.Lookup("unrelated") != nil {
		t.Error("unrelated must not be classified")
	}
}

func TestDiscoverDirectCounterManipulation(t *testing.T) {
	files := parseFiles(t, `
struct raw_obj { int refcount; };
void raw_hold(struct raw_obj *o) { o->refcount++; }
void raw_drop(struct raw_obj *o) { o->refcount--; }
`)
	db := New()
	apply(db, files)
	if a := db.Lookup("raw_hold"); a == nil || a.Op != OpInc {
		t.Errorf("raw_hold = %+v", a)
	}
	if a := db.Lookup("raw_drop"); a == nil || a.Op != OpDec {
		t.Errorf("raw_drop = %+v", a)
	}
}

func TestDiscoverFindLike(t *testing.T) {
	files := parseFiles(t, `
struct bar { struct kref ref; };
struct bar *bar_find(int id)
{
	struct bar *b = table_lookup(id);
	if (!b)
		return 0;
	kref_get(&b->ref);
	return b;
}
`)
	db := New()
	// bar_find gets a kref_get but not on a parameter, so the wrapper rule
	// does not fire; that conservatism is intentional (no false APIs).
	added := apply(db, files).APIs
	if len(added) != 0 {
		t.Errorf("added = %v (expected conservative no-op)", added)
	}
}

func TestDiscoverLoops(t *testing.T) {
	pp := cpp.New(nil)
	res := pp.Process("t.c", `
#define my_for_each_widget(w) \
	for (w = widget_find_next(0); w; w = widget_find_next(w))
#define NOT_A_LOOP(x) ((x)+1)
int dummy;
`)
	db := New()
	db.AddAPI(&API{Name: "widget_find_next", Op: OpInc, Class: Embedded,
		ObjArg: -1, ReturnsRef: true, Pair: "widget_put"})
	added := db.Apply([]FileObs{{Path: "t.c", Macros: ObserveMacros(res.Macros)}}).Loops
	if len(added) != 1 || added[0] != "my_for_each_widget" {
		t.Fatalf("added = %v", added)
	}
	l := db.Loop("my_for_each_widget")
	if l.IterArg != 0 || l.PutAPI != "widget_put" || l.EmbeddedAPI != "widget_find_next" {
		t.Errorf("loop = %+v", l)
	}
	if db.Loop("NOT_A_LOOP") != nil {
		t.Error("NOT_A_LOOP misclassified")
	}
}

func TestAPIsSortedStable(t *testing.T) {
	db := New()
	apis := db.APIs()
	for i := 1; i < len(apis); i++ {
		if apis[i-1].Name >= apis[i].Name {
			t.Fatalf("APIs not sorted at %d: %s >= %s", i, apis[i-1].Name, apis[i].Name)
		}
	}
	loops := db.Loops()
	for i := 1; i < len(loops); i++ {
		if loops[i-1].Name >= loops[i].Name {
			t.Fatalf("Loops not sorted at %d", i)
		}
	}
}

func TestOpAndClassStrings(t *testing.T) {
	if OpInc.String() != "inc" || OpDec.String() != "dec" || OpNone.String() != "none" {
		t.Error("Op strings")
	}
	if General.String() != "general" || Specific.String() != "specific" ||
		Embedded.String() != "refcounting-embedded" {
		t.Error("Class strings")
	}
}

// TestAPIFingerprintCoversEveryField: caches keyed on APIFingerprint are
// only sound if a change to any API field changes the fingerprint, so each
// field of API — including any added later — must move it on its own.
func TestAPIFingerprintCoversEveryField(t *testing.T) {
	base := func() *DB {
		db := New()
		db.AddAPI(&API{Name: "fp_probe_get", ObjArg: -1, DecArgObj: -1})
		return db
	}
	want := base().APIFingerprint()
	if base().APIFingerprint() != want {
		t.Fatal("fingerprint is not deterministic")
	}
	typ := reflect.TypeOf(API{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		db := base()
		v := reflect.ValueOf(db.Lookup("fp_probe_get")).Elem().Field(i)
		switch v.Kind() {
		case reflect.String:
			if f.Name == "Name" {
				continue // the name is the table key; renaming is a different entry
			}
			v.SetString("x")
		case reflect.Bool:
			v.SetBool(true)
		case reflect.Int:
			v.SetInt(v.Int() + 2)
		default:
			t.Fatalf("field %s has kind %s the test does not know how to vary", f.Name, v.Kind())
		}
		if db.APIFingerprint() == want {
			t.Errorf("changing API.%s does not change APIFingerprint", f.Name)
		}
	}
}
