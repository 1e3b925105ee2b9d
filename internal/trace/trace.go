// Package trace records signal activity of a running platform and writes
// it out in VCD (Value Change Dump, IEEE 1364) format, so daelite
// simulations can be inspected in standard waveform viewers (GTKWave
// etc.) the way the paper's RTL prototype would be.
//
// A Recorder samples registered probes after every committed cycle and
// stores value changes only. Probes return a string-encoded value; helper
// constructors cover the common signal shapes (flit wires, configuration
// wires, scalar counters).
package trace

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"daelite/internal/phit"
	"daelite/internal/sim"
	"daelite/internal/telemetry"
)

// Kind describes how a signal is rendered in the VCD.
type Kind int

const (
	// Wire signals render as bit vectors.
	Wire Kind = iota
	// Real signals render as real numbers.
	Real
)

// Signal is one traced waveform.
type Signal struct {
	Name  string
	Kind  Kind
	Width int // bit width for Wire signals
	// sample returns the current value, encoded per kind: binary digits
	// for Wire, decimal for Real.
	sample func() string

	id      string
	last    string
	changes []change
}

type change struct {
	cycle uint64
	value string
}

// Recorder samples signals each cycle.
type Recorder struct {
	signals []*Signal
	cycles  uint64
}

// New creates a recorder and hooks it into the simulator.
func New(s *sim.Simulator) *Recorder {
	r := &Recorder{}
	s.AddProbe(func(cycle uint64) { r.sample(cycle) })
	return r
}

func (r *Recorder) sample(cycle uint64) {
	r.cycles = cycle
	for _, sig := range r.signals {
		v := sig.sample()
		if v != sig.last {
			sig.changes = append(sig.changes, change{cycle: cycle, value: v})
			sig.last = v
		}
	}
}

// Add registers a custom signal.
func (r *Recorder) Add(name string, kind Kind, width int, sample func() string) *Signal {
	sig := &Signal{Name: name, Kind: kind, Width: width, sample: sample, last: "\x00"}
	r.signals = append(r.signals, sig)
	return sig
}

// AddFlitWire traces a data link: valid bit, payload word and credit
// sideband as one 36-bit vector (credit high, then valid, then data).
func (r *Recorder) AddFlitWire(name string, w *sim.Reg[phit.Flit]) *Signal {
	return r.Add(name, Wire, 36, func() string {
		f := w.Get()
		var v uint64
		if f.CreditValid {
			v |= uint64(f.Credit&0x7) << 33
		}
		if f.Valid {
			v |= 1 << 32
			v |= uint64(f.Data)
		}
		return fmt.Sprintf("%036b", v)
	})
}

// AddValid traces just the valid bit of a data link.
func (r *Recorder) AddValid(name string, w *sim.Reg[phit.Flit]) *Signal {
	return r.Add(name, Wire, 1, func() string {
		if w.Get().Valid {
			return "1"
		}
		return "0"
	})
}

// AddConfigWire traces a 7-bit configuration link (valid bit + symbol).
func (r *Recorder) AddConfigWire(name string, w *sim.Reg[phit.ConfigWord]) *Signal {
	return r.Add(name, Wire, 8, func() string {
		cw := w.Get()
		var v uint64
		if cw.Valid {
			v = 1<<7 | uint64(cw.Bits&0x7F)
		}
		return fmt.Sprintf("%08b", v)
	})
}

// AddGauge traces a telemetry gauge as a real signal, putting a registry
// metric (queue depth, credit level, current cycle) in the waveform next
// to the wires that explain it. The recorder and the telemetry harvest
// both run in the probe phase on the stepping goroutine, so the VCD and
// the registry see the same values in the same cycles regardless of the
// worker count; the trace steps at the harvest interval.
func (r *Recorder) AddGauge(name string, g *telemetry.Gauge) *Signal {
	return r.Add(name, Real, 0, func() string {
		return strconv.FormatInt(g.Value(), 10)
	})
}

// AddCounter traces an integer-valued probe as a real signal.
func (r *Recorder) AddCounter(name string, f func() int) *Signal {
	return r.Add(name, Real, 0, func() string {
		return fmt.Sprintf("%d", f())
	})
}

// Changes returns the number of value changes recorded on a signal.
func (s *Signal) Changes() int { return len(s.changes) }

// WriteVCD emits the recorded waveforms.
func (r *Recorder) WriteVCD(w io.Writer, timescale string) error {
	if timescale == "" {
		timescale = "1ns"
	}
	var b strings.Builder
	b.WriteString("$date daelite simulation $end\n")
	b.WriteString("$version daelite trace recorder $end\n")
	fmt.Fprintf(&b, "$timescale %s $end\n", timescale)
	b.WriteString("$scope module daelite $end\n")
	for i, sig := range r.signals {
		sig.id = vcdID(i)
		switch sig.Kind {
		case Wire:
			fmt.Fprintf(&b, "$var wire %d %s %s $end\n", sig.Width, sig.id, sanitize(sig.Name))
		case Real:
			fmt.Fprintf(&b, "$var real 64 %s %s $end\n", sig.id, sanitize(sig.Name))
		}
	}
	b.WriteString("$upscope $end\n$enddefinitions $end\n")

	// Merge all changes into a time-ordered dump.
	type event struct {
		cycle uint64
		sig   *Signal
		value string
	}
	var events []event
	for _, sig := range r.signals {
		for _, c := range sig.changes {
			events = append(events, event{cycle: c.cycle, sig: sig, value: c.value})
		}
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].cycle < events[j].cycle })
	lastTime := uint64(1 << 63)
	for _, e := range events {
		if e.cycle != lastTime {
			fmt.Fprintf(&b, "#%d\n", e.cycle)
			lastTime = e.cycle
		}
		switch e.sig.Kind {
		case Wire:
			if e.sig.Width == 1 {
				fmt.Fprintf(&b, "%s%s\n", e.value, e.sig.id)
			} else {
				fmt.Fprintf(&b, "b%s %s\n", e.value, e.sig.id)
			}
		case Real:
			fmt.Fprintf(&b, "r%s %s\n", e.value, e.sig.id)
		}
	}
	fmt.Fprintf(&b, "#%d\n", r.cycles+1)
	_, err := io.WriteString(w, b.String())
	return err
}

// vcdID maps an index to a printable VCD identifier.
func vcdID(i int) string {
	const alphabet = "!\"#$%&'()*+,-./0123456789:;<=>?@ABCDEFGHIJKLMNOPQRSTUVWXYZ"
	if i < len(alphabet) {
		return string(alphabet[i])
	}
	return string(alphabet[i%len(alphabet)]) + vcdID(i/len(alphabet)-1)
}

func sanitize(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == '.':
			return r
		default:
			return '_'
		}
	}, name)
}
