package immutable

import (
	"testing"

	"racedet/internal/rt/event"
)

func acc(t event.ThreadID, obj int64, field string, k event.Kind) event.Access {
	return event.Access{
		Loc:       event.Loc{Obj: event.ObjID(obj), Slot: 0},
		Thread:    t,
		Kind:      k,
		FieldName: field,
	}
}

// ImmutableFields lists just the fields whose every shared location
// was init-only (candidates for a final/immutable annotation).
func (d *Detector) ImmutableFields() []string {
	var out []string
	for _, r := range d.Reports() {
		if r.ObservedImmutable() {
			out = append(out, r.Field)
		}
	}
	return out
}

func TestInitOnlyPublishIsImmutable(t *testing.T) {
	d := New()
	// Main writes, children only read: the publish idiom.
	d.Access(acc(0, 1, "Q.capacity", event.Write))
	d.Access(acc(1, 1, "Q.capacity", event.Read))
	d.Access(acc(2, 1, "Q.capacity", event.Read))
	fields := d.ImmutableFields()
	if len(fields) != 1 || fields[0] != "Q.capacity" {
		t.Fatalf("immutable fields = %v", fields)
	}
}

func TestWriteAfterShareIsMutable(t *testing.T) {
	d := New()
	d.Access(acc(0, 1, "Q.count", event.Write))
	d.Access(acc(1, 1, "Q.count", event.Read))
	d.Access(acc(1, 1, "Q.count", event.Write)) // post-share write
	reports := d.Reports()
	if len(reports) != 1 || reports[0].ObservedImmutable() {
		t.Fatalf("reports = %v", reports)
	}
}

func TestOwnerRewriteBeforeShareStaysImmutable(t *testing.T) {
	d := New()
	// The owner may write many times before publication.
	d.Access(acc(0, 1, "Q.cfg", event.Write))
	d.Access(acc(0, 1, "Q.cfg", event.Write))
	d.Access(acc(1, 1, "Q.cfg", event.Read))
	if len(d.ImmutableFields()) != 1 {
		t.Fatal("pre-share rewrites must not disqualify")
	}
}

func TestSecondThreadWriteOnFirstContact(t *testing.T) {
	d := New()
	d.Access(acc(0, 1, "Q.x", event.Read))
	d.Access(acc(1, 1, "Q.x", event.Write)) // the sharing access IS a write
	reports := d.Reports()
	if len(reports) != 1 || reports[0].ObservedImmutable() {
		t.Fatalf("a cross-thread write must mark the field mutable: %v", reports)
	}
}

func TestThreadLocalFieldsOmitted(t *testing.T) {
	d := New()
	d.Access(acc(1, 1, "W.scratch", event.Write))
	d.Access(acc(1, 1, "W.scratch", event.Read))
	if n := len(d.Reports()); n != 0 {
		t.Fatalf("thread-local fields must be omitted, got %d reports", n)
	}
}

func TestFieldAggregatesAcrossObjects(t *testing.T) {
	d := New()
	// Two Q objects: object 1's capacity is init-only, object 2's is
	// written post-share → the field as a whole is not immutable.
	d.Access(acc(0, 1, "Q.capacity", event.Write))
	d.Access(acc(1, 1, "Q.capacity", event.Read))
	d.Access(acc(0, 2, "Q.capacity", event.Write))
	d.Access(acc(1, 2, "Q.capacity", event.Read))
	d.Access(acc(1, 2, "Q.capacity", event.Write))
	reports := d.Reports()
	if len(reports) != 1 {
		t.Fatalf("reports = %v", reports)
	}
	r := reports[0]
	if r.SharedLocs != 2 || r.Immutable != 1 || r.ObservedImmutable() {
		t.Fatalf("aggregate wrong: %+v", r)
	}
}
