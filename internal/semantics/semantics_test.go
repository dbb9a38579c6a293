package semantics

import (
	"strings"
	"testing"

	"repro/internal/apidb"
	"repro/internal/cast"
	"repro/internal/cfg"
	"repro/internal/cparse"
	"repro/internal/cpp"
)

func extract(t *testing.T, src, fn string) *FuncEvents {
	t.Helper()
	pp := cpp.New(nil)
	res := pp.Process("t.c", src)
	for _, e := range res.Errors {
		t.Fatalf("cpp: %v", e)
	}
	f, errs := cparse.ParseFile("t.c", res.Tokens)
	for _, e := range errs {
		t.Fatalf("parse: %v", e)
	}
	globals := map[string]bool{}
	for _, d := range f.Decls {
		if vd, ok := d.(*cast.VarDecl); ok {
			globals[vd.Name] = true
		}
	}
	x := &Extractor{DB: apidb.New(), GlobalNames: globals}
	for _, d := range f.Decls {
		if fd, ok := d.(*cast.FuncDef); ok && fd.Name == fn {
			g := cfg.Build(fd)
			if g == nil {
				t.Fatalf("no body for %s", fn)
			}
			return x.Extract(g)
		}
	}
	t.Fatalf("function %s not found", fn)
	return nil
}

func allEvents(fe *FuncEvents) []Event {
	var out []Event
	for _, b := range fe.Graph.Blocks {
		out = append(out, fe.ByBlok[b]...)
	}
	return out
}

func countOp(evs []Event, op OpKind) int {
	n := 0
	for _, e := range evs {
		if e.Op == op {
			n++
		}
	}
	return n
}

func findOp(evs []Event, op OpKind) *Event {
	for i := range evs {
		if evs[i].Op == op {
			return &evs[i]
		}
	}
	return nil
}

func TestIncDecEvents(t *testing.T) {
	fe := extract(t, `
void f(struct device_node *np)
{
	of_node_get(np);
	of_node_put(np);
}`, "f")
	evs := allEvents(fe)
	if countOp(evs, OpInc) != 1 || countOp(evs, OpDec) != 1 {
		t.Fatalf("events = %s", eventsString(evs))
	}
	inc := findOp(evs, OpInc)
	if inc.Obj != "np" || inc.API != "of_node_get" {
		t.Errorf("inc = %+v", inc)
	}
}

func TestReturnsRefBindsToTarget(t *testing.T) {
	fe := extract(t, `
void f(void)
{
	struct device_node *np = of_find_node_by_path("/cpus");
	of_node_put(np);
}`, "f")
	evs := allEvents(fe)
	inc := findOp(evs, OpInc)
	if inc == nil || inc.Obj != "np" || inc.API != "of_find_node_by_path" {
		t.Fatalf("inc = %+v, events = %s", inc, eventsString(evs))
	}
	if countOp(evs, OpInc) != 1 {
		t.Fatalf("double-counted inc: %s", eventsString(evs))
	}
}

func TestAssignmentBindInsideCondition(t *testing.T) {
	fe := extract(t, `
void f(void)
{
	struct device_node *np;
	if ((np = of_get_parent(root)))
		of_node_put(np);
}`, "f")
	evs := allEvents(fe)
	inc := findOp(evs, OpInc)
	if inc == nil || inc.Obj != "np" {
		t.Fatalf("inc = %+v events=%s", inc, eventsString(evs))
	}
}

func TestDiscardedRefEvent(t *testing.T) {
	fe := extract(t, `
void f(void)
{
	of_find_node_by_path("/x");
}`, "f")
	evs := allEvents(fe)
	inc := findOp(evs, OpInc)
	if inc == nil || inc.Obj != "" {
		t.Fatalf("inc = %+v", inc)
	}
}

func TestHiddenCursorPut(t *testing.T) {
	// of_find_matching_node puts its from argument (hidden 𝒫).
	fe := extract(t, `
void f(struct device_node *from)
{
	struct device_node *np = of_find_matching_node(from, matches);
	of_node_put(np);
}`, "f")
	evs := allEvents(fe)
	dec := findOp(evs, OpDec)
	if dec == nil || dec.Obj != "from" || dec.API != "of_find_matching_node" {
		t.Fatalf("hidden dec = %+v events=%s", dec, eventsString(evs))
	}
	if countOp(evs, OpDec) != 2 { // hidden + explicit put
		t.Fatalf("events = %s", eventsString(evs))
	}
}

func TestHiddenCursorPutSkipsNull(t *testing.T) {
	fe := extract(t, `
void f(void)
{
	struct device_node *np = of_find_matching_node(NULL, matches);
	of_node_put(np);
}`, "f")
	evs := allEvents(fe)
	// Only the explicit of_node_put counts; NULL cursor is not decremented.
	if countOp(evs, OpDec) != 1 {
		t.Fatalf("events = %s", eventsString(evs))
	}
}

func TestDerefEvents(t *testing.T) {
	fe := extract(t, `
void f(struct sock *sk)
{
	sock_put(sk);
	sk->inet_num = 0;
	use(*sk);
}`, "f")
	evs := allEvents(fe)
	if countOp(evs, OpDeref) < 2 {
		t.Fatalf("events = %s", eventsString(evs))
	}
	d := findOp(evs, OpDeref)
	if d.Obj != "sk" {
		t.Errorf("deref obj = %q", d.Obj)
	}
}

func TestLockUnlockEvents(t *testing.T) {
	fe := extract(t, `
void f(struct usb_serial *serial)
{
	mutex_lock(&serial->disc_mutex);
	usb_serial_put(serial);
	mutex_unlock(&serial->disc_mutex);
}`, "f")
	evs := allEvents(fe)
	if countOp(evs, OpLock) != 1 || countOp(evs, OpUnlock) != 1 {
		t.Fatalf("events = %s", eventsString(evs))
	}
	l := findOp(evs, OpLock)
	if l.Obj != "serial->disc_mutex" {
		t.Errorf("lock obj = %q", l.Obj)
	}
}

func TestFreeEvents(t *testing.T) {
	fe := extract(t, `
void f(struct foo *p)
{
	kfree(p);
	kmem_cache_free(cache, p);
}`, "f")
	evs := allEvents(fe)
	if countOp(evs, OpFree) != 2 {
		t.Fatalf("events = %s", eventsString(evs))
	}
	for _, ev := range evs {
		if ev.Op == OpFree && ev.Obj != "p" {
			t.Errorf("free obj = %q", ev.Obj)
		}
	}
}

func TestKeyCanonicalization(t *testing.T) {
	fe := extract(t, `
void f(struct foo_dev *d)
{
	kref_get(&d->ref);
	kref_put(&d->ref);
}`, "f")
	evs := allEvents(fe)
	inc, dec := findOp(evs, OpInc), findOp(evs, OpDec)
	if inc.Obj != "d->ref" || dec.Obj != "d->ref" {
		t.Fatalf("keys: inc=%q dec=%q", inc.Obj, dec.Obj)
	}
}

func TestEscapeClassification(t *testing.T) {
	fe := extract(t, `
struct foo *global_ref;
void f(struct bar *out, struct foo *p)
{
	struct foo *local;
	local = p;
	global_ref = p;
	out->ref = p;
}`, "f")
	evs := allEvents(fe)
	var classes []string
	for _, ev := range evs {
		if ev.Op == OpAssign {
			classes = append(classes, ev.EscapesVia)
		}
	}
	want := []string{"", "global", "outparam"}
	if strings.Join(classes, ",") != strings.Join(want, ",") {
		t.Fatalf("classes = %v, want %v (events %s)", classes, want, eventsString(evs))
	}
}

func TestCondEventNullFacts(t *testing.T) {
	fe := extract(t, `
void f(void)
{
	struct mdesc_handle *hp = mdesc_grab();
	if (!hp)
		return;
	use(hp->node);
}`, "f")
	evs := allEvents(fe)
	var cond *Event
	for i := range evs {
		if evs[i].Op == OpCond {
			cond = &evs[i]
		}
	}
	if cond == nil {
		t.Fatalf("no cond event: %s", eventsString(evs))
	}
	if len(cond.NonNullFalse) != 1 || cond.NonNullFalse[0] != "hp" {
		t.Errorf("cond facts = %+v", cond)
	}
}

func TestBaseOf(t *testing.T) {
	cases := map[string]string{
		"np": "np", "crc->dev": "crc", "a.b": "a", "arr[0]": "arr",
		"d->ref": "d",
	}
	for k, want := range cases {
		if got := BaseOf(k); got != want {
			t.Errorf("BaseOf(%q) = %q, want %q", k, got, want)
		}
	}
}

// --- template matching (Table 1) ---

func TestTemplateListing1(t *testing.T) {
	// F_start → S_G → B_error → F_end with no balancing 𝒫: the paper's
	// description of Listing 1.
	tpl := &Template{
		Name: "listing1",
		Steps: []Step{
			IncStep("S_G", func(a *apidb.API) bool { return a != nil && a.ReturnsRef }, true),
			ErrorBlockStep(),
		},
		Forbidden: ForbidDecOf(),
	}
	buggy := `
void f(void)
{
	int err;
	struct device *dev = bus_find_device(bus);
	err = check(dev);
	if (err)
		return;
	put_device(dev);
}`
	fe := extract(t, buggy, "f")
	matches := MatchTemplate(fe, tpl, 0)
	if len(matches) != 1 {
		t.Fatalf("buggy: matches = %d", len(matches))
	}
	if matches[0].Binding.Obj != "dev" {
		t.Errorf("binding = %+v", matches[0].Binding)
	}

	fixed := `
void f(void)
{
	int err;
	struct device *dev = bus_find_device(bus);
	err = check(dev);
	if (err) {
		put_device(dev);
		return;
	}
	put_device(dev);
}`
	fe = extract(t, fixed, "f")
	if got := MatchTemplate(fe, tpl, 0); len(got) != 0 {
		t.Fatalf("fixed: matches = %d", len(got))
	}
}

func TestTemplateListing2UAD(t *testing.T) {
	// F_start → S_P(p0) → S_{U∘D(p0)} → F_end: dereference after put.
	tpl := &Template{
		Name: "listing2",
		Steps: []Step{
			DecStep("S_P(p0)", true),
			DerefStep("S_D(p0)"),
		},
	}
	buggy := `
void usb_console_setup(struct usb_serial *serial)
{
	usb_serial_put(serial);
	mutex_unlock(&serial->disc_mutex);
}`
	fe := extract(t, buggy, "usb_console_setup")
	matches := MatchTemplate(fe, tpl, 0)
	if len(matches) == 0 {
		t.Fatal("UAD not matched")
	}
	if matches[0].Binding.Obj != "serial" {
		t.Errorf("binding = %+v", matches[0].Binding)
	}

	fixed := `
void usb_console_setup(struct usb_serial *serial)
{
	mutex_unlock(&serial->disc_mutex);
	usb_serial_put(serial);
}`
	fe = extract(t, fixed, "usb_console_setup")
	if got := MatchTemplate(fe, tpl, 0); len(got) != 0 {
		t.Fatalf("fixed: matches = %d", len(got))
	}
}

func TestTemplateSmartLoopBreak(t *testing.T) {
	// F_start → M_SL → S_break → F_end (P3), forbidding a put of the loop
	// variable after the break.
	src := `
#define for_each_matching_node(dn, m) \
	for (dn = of_find_matching_node(0, m); dn; \
	     dn = of_find_matching_node(dn, m))
int probe(void)
{
	struct device_node *dn;
	for_each_matching_node(dn, matches) {
		if (cond)
			break;
	}
	return 0;
}`
	tpl := &Template{
		Name: "P3",
		Steps: []Step{
			SmartLoopStep(nil),
			BreakStep("S_break"),
		},
		Forbidden: func(ev Event, b *Binding) bool { return ev.Op == OpDec },
	}
	fe := extract(t, src, "probe")
	matches := MatchTemplate(fe, tpl, 0)
	if len(matches) == 0 {
		t.Fatal("smartloop break not matched")
	}

	fixedSrc := strings.Replace(src, "break;", "{ of_node_put(dn); break; }", 1)
	// Note: replacing inside the if shorthand requires braces; rebuild.
	fixedSrc = strings.Replace(`
#define for_each_matching_node(dn, m) \
	for (dn = of_find_matching_node(0, m); dn; \
	     dn = of_find_matching_node(dn, m))
int probe(void)
{
	struct device_node *dn;
	for_each_matching_node(dn, matches) {
		if (cond) {
			of_node_put(dn);
			break;
		}
	}
	return 0;
}`, "@", "", 1)
	fe = extract(t, fixedSrc, "probe")
	if got := MatchTemplate(fe, tpl, 0); len(got) != 0 {
		t.Fatalf("fixed: matches = %d", len(got))
	}
}

func TestTemplateString(t *testing.T) {
	tpl := &Template{Name: "x", Steps: []Step{
		IncStep("S_G", nil, false), ErrorBlockStep(),
	}}
	if got := tpl.String(); got != "F_start -> S_G -> B_error -> F_end" {
		t.Errorf("String = %q", got)
	}
}

func TestTemplateFreeStep(t *testing.T) {
	tpl := &Template{
		Name: "P7",
		Steps: []Step{
			IncStep("S_G", nil, true),
			FreeStep("S_free"),
		},
	}
	fe := extract(t, `
void f(struct foo_dev *d)
{
	kref_get(&d->ref);
	kfree(d);
}`, "f")
	if got := MatchTemplate(fe, tpl, 0); len(got) != 1 {
		t.Fatalf("matches = %d", len(got))
	}
}

func TestMatchDedupAcrossPaths(t *testing.T) {
	// The same inc flows into two paths; the match must be reported once.
	tpl := &Template{
		Name:  "inc",
		Steps: []Step{IncStep("S_G", nil, true)},
	}
	fe := extract(t, `
void f(struct device_node *np, int x)
{
	of_node_get(np);
	if (x)
		a();
	else
		b();
}`, "f")
	if got := MatchTemplate(fe, tpl, 0); len(got) != 1 {
		t.Fatalf("matches = %d", len(got))
	}
}

// eventsString renders events compactly for failure messages:
// "G(np):of_find_matching_node P(from) D(sk) ...".
func eventsString(evs []Event) string {
	parts := make([]string, 0, len(evs))
	for _, ev := range evs {
		s := ev.Op.String()
		if ev.Obj != "" {
			s += "(" + ev.Obj + ")"
		}
		parts = append(parts, s)
	}
	return strings.Join(parts, " ")
}
