// Package phit defines the physical-digit (phit) types that travel on
// daelite links: payload words with sideband credit wires on the data
// network, and 7-bit configuration symbols on the configuration tree.
//
// A daelite data link is WordBits wide for payload, plus CreditWires
// sideband bits that carry end-to-end credits for the channel flowing in the
// opposite direction, plus a valid bit. Routers treat payload and credit
// bits identically: both are blindly switched by the slot table.
package phit

import "fmt"

const (
	// WordBits is the payload width of a data link in bits.
	WordBits = 32
	// CreditWires is the number of sideband wires carrying credits. With
	// a 2-word slot, 3 wires transfer a 6-bit credit value per slot.
	CreditWires = 3
	// ConfigWordBits is the width of a configuration link and of one
	// configuration word. 7 bits suffice for networks with up to 64
	// elements, routers of arity 7 and end-to-end buffers of 63 words.
	ConfigWordBits = 7
	// MaxCreditValue is the largest credit count transferable in one
	// slot (6 bits over a 2-word slot).
	MaxCreditValue = 1<<(CreditWires*2) - 1
)

// Word is one payload word.
type Word uint32

// Flit is the value present on a data link during one cycle: one payload
// word plus the sideband credit bits, with a validity flag. The zero Flit
// is an idle link.
type Flit struct {
	// Valid is true when the link carries data this cycle.
	Valid bool
	// Data is the payload word.
	Data Word
	// Credit carries CreditWires bits of piggybacked credit information
	// for the opposite-direction channel of the connection.
	Credit uint8
	// CreditValid marks the credit bits as meaningful. Credits may flow
	// during slots whose payload is idle (the wires exist regardless).
	CreditValid bool

	// Tag carries simulation-only provenance (never inspected by any
	// hardware model): the injecting NI stamps the channel ID and
	// injection cycle so that probes can measure latency and verify
	// contention-freedom without altering hardware behaviour.
	Tag Tag
}

// Tag is simulation-side metadata riding along with a flit.
type Tag struct {
	// Channel is the global channel ID the flit belongs to.
	Channel int
	// Seq is the per-channel sequence number of the word.
	Seq uint64
	// SubmitCycle is the cycle the IP handed the word to its NI; the
	// difference to InjectCycle is queueing plus scheduling latency.
	SubmitCycle uint64
	// InjectCycle is the cycle the source NI drove the flit on its link.
	InjectCycle uint64
}

// Idle returns the value of an idle link.
func Idle() Flit { return Flit{} }

// IsIdle reports whether f is the idle (zero) flit. It equals
// f == Idle() but tests the flags first and inlines, which matters on
// the per-cycle paths that skip re-driving idle wires.
func (f Flit) IsIdle() bool {
	return !f.Valid && !f.CreditValid && f.Credit == 0 && f.Data == 0 && f.Tag == Tag{}
}

// Inert reports whether the flit changes no architectural state when it
// arrives at an NI: no payload word, and no credit value (a CreditValid
// flit carrying zero credits is the steady-state emission of an open but
// silent connection — receiving it adds nothing to any credit counter).
// Fast-forward quiescence predicates accept inert flits on wires and in
// pipeline stages because they are part of the hyper-period-periodic
// orbit of a settled platform.
func (f Flit) Inert() bool {
	return !f.Valid && (!f.CreditValid || f.Credit == 0)
}

// String renders a flit compactly for traces.
func (f Flit) String() string {
	if !f.Valid && !f.CreditValid {
		return "idle"
	}
	s := ""
	if f.Valid {
		s = fmt.Sprintf("d=%08x ch=%d seq=%d", uint32(f.Data), f.Tag.Channel, f.Tag.Seq)
	}
	if f.CreditValid {
		if s != "" {
			s += " "
		}
		s += fmt.Sprintf("cr=%d", f.Credit)
	}
	return s
}

// ConfigWord is one 7-bit symbol on a configuration link. Valid marks
// cycles that carry a symbol.
type ConfigWord struct {
	Valid bool
	Bits  uint8 // low 7 bits significant
}

// NewConfigWord returns a valid configuration word holding the low 7 bits
// of v.
func NewConfigWord(v uint8) ConfigWord {
	return ConfigWord{Valid: true, Bits: v & 0x7F}
}

// String renders a configuration word for traces.
func (w ConfigWord) String() string {
	if !w.Valid {
		return "idle"
	}
	return fmt.Sprintf("%#02x", w.Bits)
}

// Response is the value on the converging reverse configuration path. Only
// one request is outstanding at a time, so nodes merge children by OR.
type Response struct {
	Valid bool
	Bits  uint8 // low 7 bits significant
}

// Merge combines two reverse-path values. With the one-outstanding-request
// policy at most one input is valid; Merge is an OR so a violation of that
// policy corrupts data rather than losing it, matching hardware.
func Merge(a, b Response) Response {
	return Response{Valid: a.Valid || b.Valid, Bits: (a.Bits | b.Bits) & 0x7F}
}
