package apidb

import (
	"testing"
)

// TestDiscoverListing3Deviation reproduces §5.1.1/Listing 3: an increment
// API implemented over a helper that bumps the counter and still returns an
// error code must be annotated IncOnError — without the seed table knowing
// about it in advance.
func TestDiscoverListing3Deviation(t *testing.T) {
	files := parseFiles(t, `
struct my_pm_dev { atomic_t usage; };
static int __my_pm_suspend(struct my_pm_dev *dev)
{
	int retval;
	atomic_inc(&dev->usage);
	retval = rpm_resume(dev);
	return retval;
}
int my_pm_get_sync(struct my_pm_dev *dev)
{
	return __my_pm_suspend(dev);
}
`)
	db := New()
	annotated := apply(db, files).Deviations

	a := db.Lookup("my_pm_get_sync")
	if a == nil {
		t.Fatal("my_pm_get_sync not discovered as an API")
	}
	if !a.IncOnError {
		t.Fatalf("IncOnError not detected; annotated = %v", annotated)
	}
}

func TestDiscoverReturnNullDeviation(t *testing.T) {
	files := parseFiles(t, `
struct md_handle { struct kref ref; };
struct md_handle *my_grab(void)
{
	struct md_handle *hp = cur_handle;
	if (!hp)
		return 0;
	kref_get(&hp->ref);
	return hp;
}
`)
	db := New()
	// my_grab isn't a wrapper by the parameter rule; register it manually
	// as a returns-ref inc (the keyword filter would surface it) and let
	// deviation discovery annotate the NULL path.
	db.AddAPI(&API{Name: "my_grab", Op: OpInc, Class: Embedded, ObjArg: -1,
		ReturnsRef: true, Struct: "md_handle"})
	annotated := apply(db, files).Deviations
	a := db.Lookup("my_grab")
	if !a.MayReturnNull {
		t.Fatalf("MayReturnNull not detected; annotated = %v", annotated)
	}
}

func TestNoDeviationOnCleanImpl(t *testing.T) {
	files := parseFiles(t, `
struct obj { struct kref ref; };
void clean_get(struct obj *o)
{
	kref_get(&o->ref);
}
`)
	db := New()
	if got := apply(db, files).Deviations; len(got) != 0 {
		t.Fatalf("spurious deviations: %v", got)
	}
	if a := db.Lookup("clean_get"); a == nil || a.IncOnError || a.MayReturnNull {
		t.Fatalf("clean_get = %+v", a)
	}
}

// TestDeviationFeedsP1 is the end-to-end payoff: after discovery, a caller
// of the custom deviated API gets a P1-style report without any seed entry.
func TestDeviationDiscoveryDeterministic(t *testing.T) {
	src := `
struct my_pm_dev { atomic_t usage; };
static int __my_pm_suspend(struct my_pm_dev *dev)
{
	int retval;
	atomic_inc(&dev->usage);
	retval = rpm_resume(dev);
	return retval;
}
int my_pm_get_sync(struct my_pm_dev *dev)
{
	return __my_pm_suspend(dev);
}
`
	for i := 0; i < 3; i++ {
		files := parseFiles(t, src)
		db := New()
		got := apply(db, files).Deviations
		if len(got) == 0 {
			t.Fatal("nothing annotated")
		}
	}
}
