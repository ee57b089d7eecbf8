// Package dht implements the Pastry-style distributed hash table SpiderNet's
// decentralized service discovery is built on (§3 of the paper): a 128-bit
// circular identifier space, hex-digit prefix routing tables, and leaf sets.
// Routing, storage, and joins are message-driven over the p2p transport, so
// every lookup pays realistic per-hop latencies in both runtimes.
package dht

import (
	"crypto/sha1"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/bits"

	"repro/internal/p2p"
)

// IDBytes is the identifier width in bytes (128 bits, as in Pastry).
const IDBytes = 16

// NumDigits is the identifier width in base-16 digits.
const NumDigits = IDBytes * 2

// ID is a 128-bit identifier in the circular Pastry key space,
// big-endian.
type ID [IDBytes]byte

// Key hashes an arbitrary string (e.g. a service function name) into the
// identifier space with SHA-1 truncated to 128 bits, the scheme Pastry's
// applications used.
func Key(s string) ID {
	sum := sha1.Sum([]byte(s))
	var id ID
	copy(id[:], sum[:IDBytes])
	return id
}

// FromNode derives a peer's DHT identifier from its transport ID.
func FromNode(n p2p.NodeID) ID {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(int64(n)))
	return Key("node:" + hex.EncodeToString(buf[:]))
}

// Digit returns the i'th base-16 digit of the identifier, most significant
// first.
func (id ID) Digit(i int) int {
	b := id[i/2]
	if i%2 == 0 {
		return int(b >> 4)
	}
	return int(b & 0x0f)
}

// CommonPrefix returns the number of leading base-16 digits id shares
// with o.
func (id ID) CommonPrefix(o ID) int {
	a, b := id.words(), o.words()
	if x := a.hi ^ b.hi; x != 0 {
		return bits.LeadingZeros64(x) / 4
	}
	if x := a.lo ^ b.lo; x != 0 {
		return 16 + bits.LeadingZeros64(x)/4
	}
	return NumDigits
}

// Cmp compares identifiers as big-endian unsigned integers, returning
// -1, 0, or 1.
func (id ID) Cmp(o ID) int { return id.words().cmp(o.words()) }

// Less reports id < o as unsigned integers.
func (id ID) Less(o ID) bool { return id.Cmp(o) < 0 }

// sub returns id - o modulo 2^128.
func sub(a, b ID) ID { return a.words().sub(b.words()).id() }

// Dist returns the circular distance min(a-b, b-a) mod 2^128.
func Dist(a, b ID) ID { return circDist(a.words(), b.words()).id() }

// Closer reports whether a is strictly closer to key than b in circular
// distance, breaking ties toward the numerically smaller identifier so the
// "numerically closest node" is unique.
func Closer(key, a, b ID) bool {
	k, x, y := key.words(), a.words(), b.words()
	if c := circDist(x, k).cmp(circDist(y, k)); c != 0 {
		return c < 0
	}
	return x.cmp(y) < 0
}

// u128 is an identifier as its two big-endian 64-bit halves, the form all
// identifier arithmetic runs on: two word operations instead of 16 bytes.
type u128 struct{ hi, lo uint64 }

func (id ID) words() u128 {
	// Indexing the array value, not slicing it, keeps id off the memory the
	// race detector instruments; each half still compiles to one load.
	return u128{
		uint64(id[0])<<56 | uint64(id[1])<<48 | uint64(id[2])<<40 | uint64(id[3])<<32 |
			uint64(id[4])<<24 | uint64(id[5])<<16 | uint64(id[6])<<8 | uint64(id[7]),
		uint64(id[8])<<56 | uint64(id[9])<<48 | uint64(id[10])<<40 | uint64(id[11])<<32 |
			uint64(id[12])<<24 | uint64(id[13])<<16 | uint64(id[14])<<8 | uint64(id[15]),
	}
}

func (x u128) id() ID {
	var id ID
	binary.BigEndian.PutUint64(id[:8], x.hi)
	binary.BigEndian.PutUint64(id[8:], x.lo)
	return id
}

func (x u128) cmp(y u128) int {
	lo, borrow := bits.Sub64(x.lo, y.lo, 0)
	hi, borrow := bits.Sub64(x.hi, y.hi, borrow)
	switch {
	case borrow != 0:
		return -1
	case hi|lo != 0:
		return 1
	}
	return 0
}

// digit is ID.Digit on words.
func (x u128) digit(i int) int {
	w := x.hi
	if i >= NumDigits/2 {
		w, i = x.lo, i-NumDigits/2
	}
	return int(w>>(60-4*i)) & 0xf
}

// sub returns x - y modulo 2^128.
func (x u128) sub(y u128) u128 {
	lo, borrow := bits.Sub64(x.lo, y.lo, 0)
	hi, _ := bits.Sub64(x.hi, y.hi, borrow)
	return u128{hi, lo}
}

// circDist is Dist on words: a−b is the shorter way round when it is below
// 2^127 (at exactly 2^127 both ways are equal).
func circDist(a, b u128) u128 {
	if d := a.sub(b); d.hi>>63 == 0 {
		return d
	}
	return b.sub(a)
}

// String renders the identifier as 32 hex digits.
func (id ID) String() string { return hex.EncodeToString(id[:]) }

// Short renders the first 8 hex digits, for logs.
func (id ID) Short() string { return fmt.Sprintf("%x", id[:4]) }
