package logvec

import (
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/store"
)

// kv is a record's content: its item's key and its sequence number.
type kv struct {
	Key string
	Seq uint64
}

func collect(c *Component) []kv {
	var out []kv
	for r := c.Head(); r != nil; r = r.Next() {
		out = append(out, kv{Key: r.Item.Key, Seq: r.Seq})
	}
	return out
}

func check(t *testing.T, c *Component) {
	t.Helper()
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAddLogRecordAppends(t *testing.T) {
	c := NewComponent()
	c.Add("y", 1)
	c.Add("x", 3)
	c.Add("z", 4)
	got := collect(c)
	want := []kv{{Key: "y", Seq: 1}, {Key: "x", Seq: 3}, {Key: "z", Seq: 4}}
	if len(got) != len(want) {
		t.Fatalf("records = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d = %v, want %v", i, got[i], want[i])
		}
	}
	check(t, c)
}

func TestAddLogRecordSupersedes(t *testing.T) {
	// Figure 1: adding (x,5) to [y:1, x:3, z:4] yields [y:1, z:4, x:5].
	c := NewComponent()
	c.Add("y", 1)
	c.Add("x", 3)
	c.Add("z", 4)
	c.Add("x", 5)
	got := collect(c)
	want := []kv{{Key: "y", Seq: 1}, {Key: "z", Seq: 4}, {Key: "x", Seq: 5}}
	if len(got) != 3 {
		t.Fatalf("records = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d = %v, want %v", i, got[i], want[i])
		}
	}
	if c.Len() != 3 {
		t.Errorf("Len = %d, want 3", c.Len())
	}
	check(t, c)
}

func TestAtMostOneRecordPerItem(t *testing.T) {
	c := NewComponent()
	for seq := uint64(1); seq <= 1000; seq++ {
		c.Add("hot", seq)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1 after 1000 updates to one item", c.Len())
	}
	if rec := c.Lookup("hot"); rec == nil || rec.Seq != 1000 {
		t.Errorf("Lookup = %+v, want seq 1000", rec)
	}
	check(t, c)
}

func TestSupersedeHeadAndTail(t *testing.T) {
	c := NewComponent()
	c.Add("a", 1)
	c.Add("b", 2)
	c.Add("a", 3) // supersede head
	check(t, c)
	c.Add("a", 4) // supersede tail
	check(t, c)
	got := collect(c)
	if len(got) != 2 || got[0].Key != "b" || got[1] != (kv{Key: "a", Seq: 4}) {
		t.Errorf("records = %v", got)
	}
}

func TestSupersedeSingleRecord(t *testing.T) {
	c := NewComponent()
	c.Add("only", 1)
	c.Add("only", 2)
	if c.Head() != c.Tail() || c.Head().Seq != 2 {
		t.Errorf("single-record supersede broken: %v", collect(c))
	}
	check(t, c)
}

func TestAddEqualSeqAllowed(t *testing.T) {
	// Equal sequence numbers arise when a tail and a concurrent session
	// race; order must still hold.
	c := NewComponent()
	c.Add("a", 5)
	c.Add("b", 5)
	check(t, c)
}

func TestAddOutOfOrderPanics(t *testing.T) {
	c := NewComponent()
	c.Add("a", 5)
	defer func() {
		if recover() == nil {
			t.Error("out-of-order Add did not panic")
		}
	}()
	c.Add("b", 4)
}

func TestTailAfter(t *testing.T) {
	c := NewComponent()
	for i := uint64(1); i <= 10; i++ {
		c.Add("k"+string(rune('0'+i)), i)
	}
	var seqs []uint64
	n := c.TailAfter(7, func(r *Record) { seqs = append(seqs, r.Seq) })
	if n != 3 {
		t.Fatalf("TailAfter(7) visited %d, want 3", n)
	}
	for i, want := range []uint64{8, 9, 10} {
		if seqs[i] != want {
			t.Errorf("seqs[%d] = %d, want %d (oldest first)", i, seqs[i], want)
		}
	}
}

func TestTailAfterBoundaries(t *testing.T) {
	c := NewComponent()
	c.Add("a", 5)
	c.Add("b", 9)
	if n := c.TailAfter(9, nil); n != 0 {
		t.Errorf("TailAfter(9) = %d, want 0", n)
	}
	if n := c.TailAfter(100, nil); n != 0 {
		t.Errorf("TailAfter(100) = %d, want 0", n)
	}
	if n := c.TailAfter(0, nil); n != 2 {
		t.Errorf("TailAfter(0) = %d, want 2", n)
	}
	empty := NewComponent()
	if n := empty.TailAfter(0, nil); n != 0 {
		t.Errorf("empty TailAfter = %d, want 0", n)
	}
	if rec := c.TailStart(5); rec == nil || rec.Item.Key != "b" {
		t.Errorf("TailStart(5) = %+v, want b", rec)
	}
	if rec := c.TailStart(9); rec != nil {
		t.Errorf("TailStart(9) = %+v, want nil", rec)
	}
}

func TestLookupPointersExact(t *testing.T) {
	c := NewComponent()
	c.Add("a", 1)
	c.Add("b", 2)
	c.Add("a", 3)
	if rec := c.Lookup("a"); rec == nil || rec.Seq != 3 {
		t.Errorf("Lookup(a) = %+v", rec)
	}
	if rec := c.Lookup("missing"); rec != nil {
		t.Errorf("Lookup(missing) = %+v, want nil", rec)
	}
}

func TestRecordNavigation(t *testing.T) {
	c := NewComponent()
	c.Add("a", 1)
	c.Add("b", 2)
	h := c.Head()
	if h.Prev() != nil || h.Next() == nil || h.Next().Prev() != h {
		t.Error("record navigation links broken")
	}
}

func TestVectorBasics(t *testing.T) {
	v := NewVector(3)
	if v.Servers() != 3 {
		t.Fatalf("Servers = %d", v.Servers())
	}
	v.Component(0).Add("x", 1)
	v.Component(1).Add("x", 1)
	v.Component(1).Add("y", 2)
	if v.Len() != 3 {
		t.Errorf("Len = %d, want 3", v.Len())
	}
	if err := v.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBoundedByItemCountRandomized(t *testing.T) {
	// §4.2: the log never exceeds one record per item per origin, no matter
	// how many updates occur.
	rng := rand.New(rand.NewSource(42))
	const items = 25
	c := NewComponent()
	seq := uint64(0)
	for u := 0; u < 5000; u++ {
		seq++
		c.Add("item-"+string(rune('a'+rng.Intn(items))), seq)
	}
	if c.Len() > items {
		t.Fatalf("Len = %d, exceeds item count %d", c.Len(), items)
	}
	check(t, c)
}

func TestRandomizedOpsKeepInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := NewComponent()
	seq := uint64(0)
	keys := []string{"a", "b", "c", "d", "e"}
	for step := 0; step < 2000; step++ {
		if rng.Intn(4) == 0 {
			c.TruncateBefore(seq - min(seq, uint64(rng.Intn(4))))
		} else {
			seq++
			c.Add(keys[rng.Intn(len(keys))], seq)
		}
		if step%97 == 0 {
			check(t, c)
		}
	}
	check(t, c)
}

func TestAddKeepsTheSupersededKey(t *testing.T) {
	// A superseding record keeps the key string the item's first record
	// had, whatever string the caller passes: a key sliced from a decoded
	// frame must not keep the frame alive.
	c := NewComponent()
	first := string([]byte("item"))
	c.Add(first, 1)
	c.Add("other", 2)
	frame := "xxitemxx"
	c.Add(frame[2:6], 3)
	c.Add(frame[2:6], 4)
	rec := c.Lookup("item")
	if rec == nil || rec.Seq != 4 || c.Tail() != rec || c.Len() != 2 {
		t.Fatalf("record %+v, tail %+v, len %d: want item at the tail with seq 4 of 2", rec, c.Tail(), c.Len())
	}
	if unsafe.StringData(rec.Item.Key) != unsafe.StringData(first) {
		t.Error("the superseding record took the caller's key string")
	}
	check(t, c)
}

func TestTailAfterCostIsSuffixLocal(t *testing.T) {
	// Build a big component; a small tail must not visit old records.
	c := NewComponent()
	for i := uint64(1); i <= 100000; i++ {
		c.Add("k"+itoa(int(i)), i)
	}
	visited := 0
	c.TailAfter(99995, func(*Record) { visited++ })
	if visited != 5 {
		t.Errorf("visited = %d, want 5", visited)
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var buf [20]byte
	pos := len(buf)
	for i > 0 {
		pos--
		buf[pos] = byte('0' + i%10)
		i /= 10
	}
	return string(buf[pos:])
}

func TestAppendKeepsOnePointerPerOrigin(t *testing.T) {
	// P_j(x) lives on the item: one slot per origin, grown on the item's
	// first record there (here origin 2 first, then a grown origin 3),
	// each maintained only by its own component.
	v := NewVector(3)
	x, y := &store.Item{Key: "x"}, &store.Item{Key: "y"}
	v.Component(2).Append(x, 1)
	if got := len(x.LogRecords()); got != 3 || x.LogRecord(0) != nil || x.LogRecord(1) != nil {
		t.Fatalf("pointers after a first record at origin 2: %d slots, %v", got, x.LogRecords())
	}
	v.Component(0).Append(x, 1)
	v.Component(2).Append(y, 2)
	v.Component(2).Append(x, 3) // supersedes x's record at origin 2 only
	if rec := x.LogRecord(2); rec == nil || rec.Seq != 3 || v.Component(2).Tail() != rec || v.Component(2).Len() != 2 {
		t.Fatalf("origin 2 after superseding x: record %+v, len %d", rec, v.Component(2).Len())
	}
	if rec := x.LogRecord(0); rec == nil || rec.Seq != 1 || v.Component(0).Len() != 1 {
		t.Fatalf("origin 0 moved when origin 2 superseded: %+v", rec)
	}
	if n := v.Component(0).TruncateBefore(1); n != 1 || x.LogRecord(0) != nil || x.LogRecord(2) == nil {
		t.Fatalf("truncating origin 0 dropped %d and left pointers %v", n, x.LogRecords())
	}
	v.Grow(4)
	v.Component(3).Append(y, 1)
	if len(y.LogRecords()) != 4 || y.LogRecord(3) == nil || y.LogRecord(2) == nil {
		t.Fatalf("pointers after growth: %v", y.LogRecords())
	}
	if err := v.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
