package core

import (
	"reflect"
	"testing"

	"repro/internal/obs"
)

// TestDeferralTableContents pins the declarative precedence table to exactly
// the rules hoisted out of the checkers; adding or dropping a deference is a
// deliberate, visible diff here.
func TestDeferralTableContents(t *testing.T) {
	want := []DeferralRule{
		{From: P4, Reason: DeferSmartLoop, To: P3},
		{From: P4, Reason: DeferLongLivedStore, To: P6},
		{From: P4, Reason: DeferPairedErrorPath, To: P5},
		{From: P5, Reason: DeferIncOnError, To: P1},
		{From: P5, Reason: DeferSmartLoop, To: P3},
		{From: P6, Reason: DeferSmartLoop, To: P3},
	}
	if !reflect.DeepEqual(deferralRules, want) {
		t.Fatalf("deferralRules = %+v, want %+v", deferralRules, want)
	}
}

// TestApplyDeferrals covers the filter itself: every tabled (pattern, reason)
// pair drops, an unmapped tag survives (an unknown deferral must be visible,
// not silently eaten), and untagged reports pass through untouched.
func TestApplyDeferrals(t *testing.T) {
	var tabled []Report
	for _, r := range deferralRules {
		tabled = append(tabled, Report{Pattern: r.From, Deferred: r.Reason, Message: "tabled"})
	}
	kept := []Report{
		{Pattern: P1, Deferred: DeferSmartLoop, Message: "unmapped tag survives"},
		{Pattern: P4, Message: "untagged survives"},
	}
	reg := obs.NewRegistry()
	out := applyDeferrals(append(tabled, kept...), reg)
	if !reflect.DeepEqual(out, kept) {
		t.Fatalf("applyDeferrals = %+v, want only %+v", out, kept)
	}
	for _, r := range deferralRules {
		name := "deferrals." + string(r.From) + "." + string(r.Reason)
		if reg.Counter(name) != 1 {
			t.Errorf("counter %s = %d, want 1", name, reg.Counter(name))
		}
	}
	if applyDeferrals(nil, nil) != nil {
		t.Fatal("applyDeferrals(nil) should be nil")
	}
}

// The four tests below re-prove, end to end, each inline early-continue the
// table replaced: the deferring checker stays silent while the owning
// checker reports.

// P4 → P3 (DeferSmartLoop): the smartloop macro owns its iteration
// reference; the hidden-get API it expands to must not double-report.
func TestDeferralSmartLoopOwnedByP3(t *testing.T) {
	src := smartLoopHeader + `
static int scan(void)
{
	struct device_node *dn;
	for_each_matching_node(dn, matches) {
		if (of_device_is_available(dn))
			break;
	}
	return 0;
}`
	rs := check(t, "drivers/soc/scan.c", src)
	if len(withPattern(rs, P3)) != 1 {
		t.Fatalf("want exactly one P3 report: %+v", rs)
	}
	if got := withPattern(rs, P4); len(got) != 0 {
		t.Fatalf("P4 smartloop candidate not deferred to P3: %+v", got)
	}
}

// P4 → P6 (DeferLongLivedStore): a reference stored into long-lived state is
// the inter-paired checker's business — the put belongs in the release
// callback, not at the end of the acquiring function.
func TestDeferralLongLivedStoreOwnedByP6(t *testing.T) {
	src := `
struct platform_driver { int (*probe)(void); int (*remove)(void); };
static struct device_node *state_np;
static int d_probe(void)
{
	struct device_node *np = of_find_node_by_path("/soc");
	state_np = np;
	return 0;
}
static int d_remove(void)
{
	return 0;
}
static struct platform_driver d_driver = {
	.probe = d_probe,
	.remove = d_remove,
};`
	rs := check(t, "drivers/soc/d.c", src)
	if len(withPattern(rs, P6)) != 1 {
		t.Fatalf("want exactly one P6 report: %+v", rs)
	}
	if got := withPattern(rs, P4); len(got) != 0 {
		t.Fatalf("P4 long-lived-store candidate not deferred to P6: %+v", got)
	}
}

// P4 → P5 (DeferPairedErrorPath): the developer paired the put on the normal
// path, so the put-free error path is an overlooked location (P5), not an
// overlooked API (P4).
func TestDeferralPairedErrorPathOwnedByP5(t *testing.T) {
	src := `
static int attach(void)
{
	int err;
	struct device_node *np = of_find_node_by_path("/soc");
	err = register_thing(np);
	if (err)
		goto fail;
	of_node_put(np);
	return 0;
fail:
	return err;
}`
	rs := check(t, "drivers/dma/attach.c", src)
	if len(withPattern(rs, P5)) != 1 {
		t.Fatalf("want exactly one P5 report: %+v", rs)
	}
	if got := withPattern(rs, P4); len(got) != 0 {
		t.Fatalf("P4 paired-error-path candidate not deferred to P5: %+v", got)
	}
}

// P5 → P1 (DeferIncOnError): an increments-on-error API leaking through its
// error path is P1's return-error deviation.
func TestDeferralIncOnErrorOwnedByP1(t *testing.T) {
	src := `
static int f(struct my_dev *crc)
{
	int ret = pm_runtime_get_sync(crc->dev);
	if (ret < 0)
		return ret;
	pm_runtime_put_noidle(crc->dev);
	return 0;
}`
	rs := check(t, "drivers/crc/f.c", src)
	if len(withPattern(rs, P1)) != 1 {
		t.Fatalf("want exactly one P1 report: %+v", rs)
	}
	if got := withPattern(rs, P5); len(got) != 0 {
		t.Fatalf("P5 inc-on-error candidate not deferred to P1: %+v", got)
	}
}
