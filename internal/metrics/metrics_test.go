package metrics

import (
	"reflect"
	"strings"
	"testing"
)

// gauges are the Counters fields Add max-merges and Diff passes through.
// LogRecords is a gauge too, but Add sums it (see Counters).
var gauges = map[string]bool{"PeakPayloadBytes": true, "StreamFirstApplyNanos": true}

// sample sets every field of Counters, by reflection, to a distinct
// non-zero value: field i holds (i+1)·mult. A field added to Counters is
// covered without editing the test.
func sample(mult uint64) Counters {
	var c Counters
	v := reflect.ValueOf(&c).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetUint(uint64(i+1) * mult)
	}
	return c
}

// eachField calls f with the name and the values in a and b of every
// Counters field.
func eachField(a, b Counters, f func(name string, a, b uint64)) {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		f(va.Type().Field(i).Name, va.Field(i).Uint(), vb.Field(i).Uint())
	}
}

func TestAddAccumulatesEveryField(t *testing.T) {
	a, b := sample(1), sample(100)
	sum := a
	sum.Add(&b)
	eachField(sum, a, func(name string, got, x uint64) {
		want := x + x*100
		if gauges[name] {
			want = x * 100 // max-merged
		}
		if got != want {
			t.Errorf("Add: %s = %d, want %d", name, got, want)
		}
	})
	// A gauge keeps the larger value whichever side holds it.
	c := sample(100)
	c.Add(&a)
	for name := range gauges {
		if got, want := reflect.ValueOf(c).FieldByName(name).Uint(), reflect.ValueOf(b).FieldByName(name).Uint(); got != want {
			t.Errorf("Add into the larger gauge: %s = %d, want %d", name, got, want)
		}
	}
}

// Diff undoes Add on every counter and passes the three gauges through.
func TestDiff(t *testing.T) {
	base, more := sample(1), sample(7)
	cur := base
	cur.Add(&more)
	eachField(cur.Diff(base), cur, func(name string, got, c uint64) {
		want := c - reflect.ValueOf(base).FieldByName(name).Uint()
		if gauges[name] || name == "LogRecords" {
			want = c // passed through
		}
		if got != want {
			t.Errorf("Diff: %s = %d, want %d", name, got, want)
		}
	})
}

func TestDiffFromZero(t *testing.T) {
	c := sample(1)
	if c.Diff(Counters{}) != c {
		t.Error("Diff from zero should be identity")
	}
}

func TestComparisons(t *testing.T) {
	c := Counters{DBVVComparisons: 10, IVVComparisons: 20, SeqComparisons: 30}
	if got := c.Comparisons(); got != 60 {
		t.Errorf("Comparisons = %d, want 60", got)
	}
}

func TestReset(t *testing.T) {
	c := sample(1)
	c.Reset()
	if c != (Counters{}) {
		t.Errorf("Reset left %+v", c)
	}
}

func TestStringNonZeroOnly(t *testing.T) {
	c := Counters{DBVVComparisons: 3, BytesSent: 100}
	s := c.String()
	if !strings.Contains(s, "dbvv-cmp=3") || !strings.Contains(s, "bytes=100") {
		t.Errorf("String = %q", s)
	}
	if strings.Contains(s, "ivv-cmp") {
		t.Errorf("String includes zero field: %q", s)
	}
}

// String names every non-zero field: each field alone renders one entry,
// and no two fields share a name.
func TestStringNamesEveryField(t *testing.T) {
	names := map[string]string{}
	eachField(sample(1), Counters{}, func(name string, _, _ uint64) {
		var c Counters
		reflect.ValueOf(&c).Elem().FieldByName(name).SetUint(42)
		s := c.String()
		entry := strings.TrimSuffix(strings.TrimPrefix(s, "{"), "}")
		label, val, ok := strings.Cut(entry, "=")
		if !ok || val != "42" || strings.Contains(entry, " ") {
			t.Errorf("String with only %s set = %q, want one entry name=42", name, s)
			return
		}
		if prev, dup := names[label]; dup {
			t.Errorf("String names %s and %s both %q", prev, name, label)
		}
		names[label] = name
	})
	if got, want := len(strings.Fields(sample(1).String())), reflect.TypeOf(Counters{}).NumField(); got != want {
		t.Errorf("String of a full sample has %d entries, want %d", got, want)
	}
}

func TestStringEmpty(t *testing.T) {
	if got := (Counters{}).String(); got != "{}" {
		t.Errorf("empty String = %q", got)
	}
}

// Atomic mirrors Counters: Snapshot reads, and Reset zeroes, every Atomic
// field into the Counters field of the same name.
func TestAtomicSnapshotAndResetCoverEveryField(t *testing.T) {
	var a Atomic
	va := reflect.ValueOf(&a).Elem()
	for i := 0; i < va.NumField(); i++ {
		name := va.Type().Field(i).Name
		if _, ok := reflect.TypeOf(Counters{}).FieldByName(name); !ok {
			t.Errorf("Atomic.%s has no Counters field", name)
			continue
		}
		va.Field(i).Addr().Interface().(interface{ Store(uint64) }).Store(uint64(i + 1))
	}
	snap := reflect.ValueOf(a.Snapshot())
	for i := 0; i < va.NumField(); i++ {
		name := va.Type().Field(i).Name
		if f := snap.FieldByName(name); f.IsValid() && f.Uint() != uint64(i+1) {
			t.Errorf("Snapshot: %s = %d, want %d", name, f.Uint(), i+1)
		}
	}
	a.Reset()
	for i := 0; i < va.NumField(); i++ {
		if got := va.Field(i).Addr().Interface().(interface{ Load() uint64 }).Load(); got != 0 {
			t.Errorf("Reset left %s = %d", va.Type().Field(i).Name, got)
		}
	}
}
