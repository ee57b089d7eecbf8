package dht

import "testing"

// The byte-at-a-time identifier math the two-word versions replaced, kept as
// their reference.

func cmpBytes(a, b ID) int {
	for i := 0; i < IDBytes; i++ {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	return 0
}

func subBytes(a, b ID) ID {
	var r ID
	var borrow uint16
	for i := IDBytes - 1; i >= 0; i-- {
		d := uint16(a[i]) - uint16(b[i]) - borrow
		r[i] = byte(d)
		borrow = (d >> 15) & 1
	}
	return r
}

func commonPrefixBytes(a, b ID) int {
	for i := 0; i < NumDigits; i++ {
		if a.Digit(i) != b.Digit(i) {
			return i
		}
	}
	return NumDigits
}

func distBytes(a, b ID) ID {
	d1, d2 := subBytes(a, b), subBytes(b, a)
	if cmpBytes(d1, d2) < 0 {
		return d1
	}
	return d2
}

// sameAsBytes fails unless every word operation on (a, b) equals its byte
// reference, in both argument orders.
func sameAsBytes(t *testing.T, a, b ID) {
	t.Helper()
	for _, p := range [][2]ID{{a, b}, {b, a}} {
		x, y := p[0], p[1]
		if got, want := x.Cmp(y), cmpBytes(x, y); got != want {
			t.Fatalf("%s.Cmp(%s) = %d, bytes say %d", x, y, got, want)
		}
		if got, want := sub(x, y), subBytes(x, y); got != want {
			t.Fatalf("sub(%s, %s) = %s, bytes say %s", x, y, got, want)
		}
		if got, want := x.CommonPrefix(y), commonPrefixBytes(x, y); got != want {
			t.Fatalf("%s.CommonPrefix(%s) = %d, bytes say %d", x, y, got, want)
		}
		if got, want := Dist(x, y), distBytes(x, y); got != want {
			t.Fatalf("Dist(%s, %s) = %s, bytes say %s", x, y, got, want)
		}
		for i := 0; i < NumDigits; i++ {
			if got, want := x.words().digit(i), x.Digit(i); got != want {
				t.Fatalf("%s digit %d = %d on words, %d on bytes", x, i, got, want)
			}
		}
	}
}

func TestWordsMatchBytes(t *testing.T) {
	var zero, one, top, lowOnly ID
	one[IDBytes-1] = 1
	for i := range top {
		top[i] = 0xff
	}
	lowOnly[IDBytes/2] = 0x80
	cases := [][2]ID{
		{zero, one},          // 0 − 1 wraps to all ones
		{zero, top},          // and 0 − (2^128 − 1) to one
		{Key("a"), Key("a")}, // equal
		{zero, zero},
		{zero, lowOnly}, // the halves differ only in the low word
		{one, lowOnly},
		{Key("x"), Key("y")},
	}
	// A first difference at every digit position, high and low nibble, with
	// and without a borrow across it.
	base := Key("base")
	for i := 0; i < NumDigits; i++ {
		for _, flip := range []byte{0x1, 0x8, 0xf} {
			o := base
			if i%2 == 0 {
				o[i/2] ^= flip << 4
			} else {
				o[i/2] ^= flip
			}
			cases = append(cases, [2]ID{base, o})
		}
	}
	for _, c := range cases {
		sameAsBytes(t, c[0], c[1])
	}
	if got := sub(zero, one); got != top {
		t.Fatalf("0 - 1 = %s, want all ones", got)
	}
	for i := 0; i < NumDigits; i++ {
		o := base
		o[i/2] ^= 0x10 >> (4 * (i % 2))
		if got := base.CommonPrefix(o); got != i {
			t.Fatalf("first difference at digit %d: CommonPrefix = %d", i, got)
		}
	}
}

// FuzzWordsMatchBytes holds the word operations to the byte reference on any
// pair of identifiers (inputs are zero-padded or cut to 16 bytes).
func FuzzWordsMatchBytes(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte{0}, []byte{15: 1})
	f.Fuzz(func(t *testing.T, x, y []byte) {
		var a, b ID
		copy(a[:], x)
		copy(b[:], y)
		sameAsBytes(t, a, b)
	})
}
