// Package trace records structured simulation events into a bounded buffer
// for debugging and for the integration tests that assert temporal
// properties (e.g. the fairness property of Theorem 1's proof).
package trace

import (
	"fmt"

	"addcrn/internal/sim"
)

// Kind tags a recorded event.
type Kind uint8

// Recorded event kinds.
const (
	KindTxStart Kind = iota + 1
	KindTxEnd
	KindTxAbort
	KindDeliver
	KindBackoffDraw
	// Fault-layer kinds (internal/fault): node crash/recover events, a
	// self-healing re-parenting (Arg = new parent id), and a packet destroyed
	// by a fault (Arg = origin id).
	KindCrash
	KindRecover
	KindRepair
	KindPacketLost
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindTxStart:
		return "tx-start"
	case KindTxEnd:
		return "tx-end"
	case KindTxAbort:
		return "tx-abort"
	case KindDeliver:
		return "deliver"
	case KindBackoffDraw:
		return "backoff-draw"
	case KindCrash:
		return "crash"
	case KindRecover:
		return "recover"
	case KindRepair:
		return "repair"
	case KindPacketLost:
		return "packet-lost"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Record is one trace entry.
type Record struct {
	Time sim.Time
	Node int32
	Kind Kind
	// Arg carries a kind-specific value (origin id for deliveries, draw
	// length for backoffs).
	Arg int64
}

// String implements fmt.Stringer.
func (r Record) String() string {
	return fmt.Sprintf("%10dus node=%-5d %-12s arg=%d", int64(r.Time), r.Node, r.Kind, r.Arg)
}
