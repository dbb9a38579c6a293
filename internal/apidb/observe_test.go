package apidb

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/cparse"
	"repro/internal/cpp"
)

// obsCorpus is a corpus crafted to exercise every order-sensitive discovery
// decision: cross-file wrapper chains in both path directions, a wrapper
// whose target sorts *after* it (so classification must miss, in both
// modes), direct counter manipulation, loop macros (including a shadowing
// redefinition), and both deviation classes with a tail-call helper.
var obsCorpus = map[string]string{
	"a_base.c": `
struct obj { refcount_t refcount; };
struct obj *obj_get(struct obj *o) { o->refcount++; return o; }
void obj_put(struct obj *o) { o->refcount--; }
`,
	"b_wrap.c": `
void obj_hold(struct obj *o) { obj_get(o); }
void obj_drop(struct obj *o) { obj_put(o); }
int obj_hold_err(struct obj *o) { obj_get(o); return -EBUSY; }
`,
	"c_finder.c": `
struct obj *obj_find(int id)
{
	struct obj *o = table_lookup(id);
	if (!o)
		return 0;
	obj_get(o);
	return o;
}
struct obj *obj_find_ref(struct obj *from)
{
	obj_get(from);
	return from;
}
`,
	"d_tail.c": `
int helper_inc_err(struct obj *o) { obj_get(o); return err; }
int outer_get(struct obj *o) { return helper_inc_err(o); }
`,
	// Wrapper around a function that only appears in a later-sorted file:
	// the whole-corpus scan reaches e_early.c before z_late.c defines
	// late_get, so early_hold is NOT classified. Replay must miss it too.
	"e_early.c": `
void early_hold(struct zobj *z) { late_get(z); }
`,
	"z_late.c": `
struct zobj { struct kref kref; };
void late_get(struct zobj *z) { kref_get(&z->kref); }
`,
}

var obsMacroSrc = `
#define my_for_each_obj(o) \
	for (o = obj_find_ref(0); o; o = obj_find_ref(o))
#define NOT_A_LOOP(x) ((x)+1)
int dummy;
`

// observeCorpus preprocesses, parses and observes every corpus file, in
// sorted path order.
func observeCorpus(t *testing.T) []FileObs {
	t.Helper()
	paths := make([]string, 0, len(obsCorpus))
	for p := range obsCorpus {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	var out []FileObs
	for _, p := range paths {
		pp := cpp.New(nil)
		src := obsCorpus[p]
		if p == "a_base.c" {
			src = obsMacroSrc + src
		}
		res := pp.Process(p, src)
		f, errs := cparse.ParseFile(p, res.Tokens)
		for _, e := range errs {
			t.Fatalf("%s: parse: %v", p, e)
		}
		out = append(out, ObserveFile(p, f, res.Macros))
	}
	return out
}

// dumpDB renders the complete discovery-relevant DB state canonically.
func dumpDB(db *DB) string {
	var b strings.Builder
	apis := db.APIs()
	sort.Slice(apis, func(i, j int) bool { return apis[i].Name < apis[j].Name })
	for _, a := range apis {
		fmt.Fprintf(&b, "api %+v\n", *a)
	}
	loops := db.Loops()
	sort.Slice(loops, func(i, j int) bool { return loops[i].Name < loops[j].Name })
	for _, l := range loops {
		fmt.Fprintf(&b, "loop %+v\n", *l)
	}
	var structs []string
	for s := range db.refStructs {
		structs = append(structs, s)
	}
	sort.Strings(structs)
	fmt.Fprintf(&b, "structs %v\n", structs)
	return b.String()
}

// TestApplyStages pins what each of Apply's four stages adds for a corpus
// built to exercise every order-sensitive discovery decision: structs and
// deviations come back sorted, wrapper APIs in the file order the replay
// met them (each classified against the APIs known by then), loops in name
// order.
func TestApplyStages(t *testing.T) {
	db := New()
	disc := db.Apply(observeCorpus(t))

	for _, c := range []struct {
		stage     string
		got, want []string
	}{
		{"structs", disc.Structs, []string{"obj", "zobj"}},
		{"apis", disc.APIs, []string{"obj_get", "obj_put", "obj_hold", "obj_drop",
			"obj_hold_err", "obj_find_ref", "helper_inc_err", "outer_get", "late_get"}},
		{"loops", disc.Loops, []string{"my_for_each_obj"}},
		{"deviations", disc.Deviations, []string{"helper_inc_err", "obj_hold_err", "outer_get"}},
	} {
		if fmt.Sprint(c.got) != fmt.Sprint(c.want) {
			t.Errorf("%s stage added %v, want %v", c.stage, c.got, c.want)
		}
	}

	// The corpus must actually exercise the interesting cases, or the lists
	// above pin nothing.
	if a := db.Lookup("obj_hold"); a == nil || a.Op != OpInc {
		t.Errorf("obj_hold should be a discovered inc wrapper, got %+v", a)
	}
	if a := db.Lookup("obj_hold_err"); a == nil || !a.IncOnError {
		t.Errorf("obj_hold_err should be IncOnError, got %+v", a)
	}
	if a := db.Lookup("outer_get"); a == nil || !a.IncOnError {
		t.Errorf("outer_get should be IncOnError via tail-call helper, got %+v", a)
	}
	if a := db.Lookup("obj_find"); a != nil {
		t.Errorf("obj_find works on a local, must stay unclassified, got %+v", a)
	}
	if a := db.Lookup("obj_find_ref"); a == nil || !a.ReturnsRef {
		t.Errorf("obj_find_ref should be a returns-ref inc, got %+v", a)
	}
	if db.Lookup("early_hold") != nil {
		t.Error("early_hold's target sorts later, so the replay must not classify it")
	}
	if db.Loop("my_for_each_obj") == nil {
		t.Error("my_for_each_obj smartloop missing")
	}
}

// TestApplyShardInvariant: observations may be *extracted* in any sharding,
// but once concatenated in sorted path order the replay is a pure function
// of that sequence — shard count cannot change the result.
func TestApplyShardInvariant(t *testing.T) {
	whole := observeCorpus(t)
	dbWhole := New()
	discWhole := dbWhole.Apply(whole)
	want := dumpDB(dbWhole)

	for _, shards := range []int{2, 3, len(whole)} {
		// Round-robin partition, then merge shard outputs back in path order
		// — exactly what the manager's exchange step does.
		parts := make([][]FileObs, shards)
		for i, o := range whole {
			parts[i%shards] = append(parts[i%shards], o)
		}
		var merged []FileObs
		for _, part := range parts {
			merged = append(merged, part...)
		}
		sort.Slice(merged, func(i, j int) bool { return merged[i].Path < merged[j].Path })
		db := New()
		disc := db.Apply(merged)
		if got := dumpDB(db); got != want {
			t.Errorf("shards=%d: DB differs:\n--- want ---\n%s--- got ---\n%s", shards, want, got)
		}
		if fmt.Sprint(disc) != fmt.Sprint(discWhole) {
			t.Errorf("shards=%d: discovery %v != %v", shards, disc, discWhole)
		}
	}
}
