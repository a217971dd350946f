package op

import (
	"bytes"
	"testing"
	"testing/quick"
)

func mustApply(t *testing.T, o Op, in []byte) []byte {
	t.Helper()
	out, err := o.Apply(in)
	if err != nil {
		t.Fatalf("Apply(%v, %q): %v", o, in, err)
	}
	return out
}

func TestSet(t *testing.T) {
	out := mustApply(t, NewSet([]byte("hello")), []byte("old"))
	if !bytes.Equal(out, []byte("hello")) {
		t.Errorf("Set = %q, want %q", out, "hello")
	}
}

func TestSetEmpty(t *testing.T) {
	out := mustApply(t, NewSet(nil), []byte("old"))
	if len(out) != 0 {
		t.Errorf("Set(nil) = %q, want empty", out)
	}
}

func TestAppend(t *testing.T) {
	out := mustApply(t, NewAppend([]byte("-tail")), []byte("head"))
	if !bytes.Equal(out, []byte("head-tail")) {
		t.Errorf("Append = %q", out)
	}
}

func TestAppendToEmpty(t *testing.T) {
	out := mustApply(t, NewAppend([]byte("x")), nil)
	if !bytes.Equal(out, []byte("x")) {
		t.Errorf("Append to nil = %q", out)
	}
}

func TestDelete(t *testing.T) {
	out := mustApply(t, NewDelete(), []byte("payload"))
	if len(out) != 0 {
		t.Errorf("Delete = %q, want empty", out)
	}
}

func TestWriteAtInside(t *testing.T) {
	out := mustApply(t, NewWriteAt(1, []byte("XY")), []byte("abcd"))
	if !bytes.Equal(out, []byte("aXYd")) {
		t.Errorf("WriteAt = %q, want aXYd", out)
	}
}

func TestWriteAtExtends(t *testing.T) {
	out := mustApply(t, NewWriteAt(6, []byte("ZZ")), []byte("ab"))
	want := []byte{'a', 'b', 0, 0, 0, 0, 'Z', 'Z'}
	if !bytes.Equal(out, want) {
		t.Errorf("WriteAt extend = %v, want %v", out, want)
	}
}

func TestWriteAtExactEnd(t *testing.T) {
	out := mustApply(t, NewWriteAt(2, []byte("cd")), []byte("ab"))
	if !bytes.Equal(out, []byte("abcd")) {
		t.Errorf("WriteAt at end = %q", out)
	}
}

func TestApplyDoesNotMutateInput(t *testing.T) {
	in := []byte("abcd")
	saved := append([]byte(nil), in...)
	for _, o := range []Op{NewSet([]byte("x")), NewAppend([]byte("y")), NewWriteAt(0, []byte("Q")), NewDelete()} {
		mustApply(t, o, in)
		if !bytes.Equal(in, saved) {
			t.Fatalf("op %v mutated its input: %q", o, in)
		}
	}
}

func TestApplyReturnsFreshSlice(t *testing.T) {
	// Stores share values they never write: a value may sit in several
	// replicas and in payloads in flight at once. That is sound only while
	// every Apply returns storage of its own and leaves its input, spare
	// capacity included, untouched.
	for _, o := range []Op{NewSet([]byte("xy")), NewAppend([]byte("y")), NewWriteAt(1, []byte("QRS")), NewWriteAt(0, nil), NewDelete()} {
		in := make([]byte, 4, 16)
		copy(in[:cap(in)], "abcdefghijklmnop")
		data := append([]byte(nil), o.Data...)
		out := mustApply(t, o, in)
		for i := range out {
			out[i] = '!'
		}
		if string(in[:cap(in)]) != "abcdefghijklmnop" {
			t.Errorf("op %v wrote its input or its spare capacity: %q", o, in[:cap(in)])
		}
		if !bytes.Equal(o.Data, data) {
			t.Errorf("op %v returned a value sharing its own data", o)
		}
		if out2 := mustApply(t, o, in); len(out2) > 0 && len(out) > 0 && &out2[0] == &out[0] {
			t.Errorf("op %v returned the same storage twice", o)
		}
	}
}

func TestInvalidOps(t *testing.T) {
	bad := []Op{
		{Kind: WriteAt, Offset: -1, Data: []byte("x")},
		{Kind: WriteAt, Offset: MaxWriteOffset + 1, Data: []byte("x")}, // fuzz regression: OOM vector
		{Kind: Kind(200)},
	}
	for _, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("Validate(%v) = nil, want error", o)
		}
		if _, err := o.Apply([]byte("v")); err == nil {
			t.Errorf("Apply(%v) = nil error, want error", o)
		}
	}
}

func TestClone(t *testing.T) {
	o := NewSet([]byte("abc"))
	c := o.Clone()
	c.Data[0] = 'Z'
	if o.Data[0] != 'a' {
		t.Error("Clone shares Data storage")
	}
	n := Op{Kind: Delete}
	if cn := n.Clone(); cn.Data != nil {
		t.Error("Clone of nil Data should stay nil")
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		Set: "set", WriteAt: "write-at", Append: "append", Delete: "delete",
		Kind(99): "Kind(99)",
	} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestOpString(t *testing.T) {
	cases := map[string]string{
		NewSet([]byte("v")).String():        `set("v")`,
		NewWriteAt(3, []byte("w")).String(): `write-at(3,"w")`,
		NewDelete().String():                "delete()",
		NewAppend([]byte("a")).String():     `append("a")`,
	}
	for got, want := range cases {
		if got != want {
			t.Errorf("String = %q, want %q", got, want)
		}
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	ops := []Op{
		NewSet([]byte("hello world")),
		NewSet(nil),
		NewAppend([]byte{0, 1, 2, 255}),
		NewWriteAt(1024, []byte("block")),
		NewDelete(),
	}
	var buf []byte
	for _, o := range ops {
		buf = o.Marshal(buf)
	}
	for _, want := range ops {
		got, n, err := Unmarshal(buf)
		if err != nil {
			t.Fatalf("Unmarshal: %v", err)
		}
		buf = buf[n:]
		if got.Kind != want.Kind || got.Offset != want.Offset || !bytes.Equal(got.Data, want.Data) {
			t.Errorf("round trip = %v, want %v", got, want)
		}
	}
	if len(buf) != 0 {
		t.Errorf("%d trailing bytes after round trip", len(buf))
	}
}

func TestMarshalRoundTripQuick(t *testing.T) {
	f := func(kind uint8, off uint16, data []byte) bool {
		o := Op{Kind: Kind(kind % 4), Offset: int(off), Data: data}
		got, n, err := Unmarshal(o.Marshal(nil))
		if err != nil || n == 0 {
			return false
		}
		return got.Kind == o.Kind && got.Offset == o.Offset && bytes.Equal(got.Data, o.Data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	cases := [][]byte{
		nil,                                 // empty
		{byte(Set)},                         // missing offset varint
		{byte(Set), 0},                      // missing length varint
		{byte(Set), 0, 5, 'a'},              // truncated payload
		{200, 0, 0},                         // invalid kind
		NewWriteAt(0, nil).Marshal(nil)[:1], // cut mid-header
	}
	for i, buf := range cases {
		if _, _, err := Unmarshal(buf); err == nil {
			t.Errorf("case %d: Unmarshal(%v) succeeded, want error", i, buf)
		}
	}
}

func TestWireSize(t *testing.T) {
	o := NewSet(make([]byte, 100))
	if got := o.WireSize(); got != 105 {
		t.Errorf("WireSize = %d, want 105", got)
	}
}

func TestApplySequenceDeterministic(t *testing.T) {
	// The same op sequence applied to the same start value must always give
	// the same result — the property whole-item copying and aux-log replay
	// both depend on.
	seq := []Op{
		NewSet([]byte("base")),
		NewAppend([]byte("-1")),
		NewWriteAt(0, []byte("B")),
		NewAppend([]byte("-2")),
	}
	run := func() []byte {
		v := []byte{}
		for _, o := range seq {
			v = mustApply(t, o, v)
		}
		return v
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Errorf("non-deterministic replay: %q vs %q", a, b)
	}
	if !bytes.Equal(a, []byte("Base-1-2")) {
		t.Errorf("replay result = %q, want %q", a, "Base-1-2")
	}
}
