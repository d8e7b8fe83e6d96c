// Flight recorder: a bounded per-track ring of the most recent trace events,
// kept cheap enough to run alongside chaos campaigns, and dumped when
// something goes wrong — automatically when supervision quarantines a
// partition, and on demand when a chaos invariant fails. The dump answers
// "what were the last things this partition did" without retaining the full
// event stream.
package otrace

import (
	"fmt"
	"sort"
	"strings"

	"cronus/internal/sim"
	"cronus/internal/trace"
)

// DefaultRingEvents bounds each track's ring when NewFlightRecorder is given
// a non-positive capacity.
const DefaultRingEvents = 128

// quarantineEvent is the supervision event name whose appearance triggers an
// automatic dump of the quarantined partition's ring (see
// internal/spm supervision instrumentation).
const quarantineEvent = "partition-quarantined"

// Dump is one captured ring: the track it watched, why and when it was cut,
// and the retained events oldest-first.
type Dump struct {
	Track  string
	Reason string
	At     sim.Time
	Events []trace.Event
}

// FlightRecorder taps a trace.Collector and retains the last N events per
// track. Like the collector it taps, it belongs to the one kernel that
// records into that collector, and takes no lock.
type FlightRecorder struct {
	cap   int
	rings map[string][]trace.Event
	dumps []Dump
}

// NewFlightRecorder returns a recorder retaining up to perTrack events per
// track (DefaultRingEvents if perTrack <= 0).
func NewFlightRecorder(perTrack int) *FlightRecorder {
	if perTrack <= 0 {
		perTrack = DefaultRingEvents
	}
	return &FlightRecorder{cap: perTrack, rings: make(map[string][]trace.Event)}
}

// Attach installs the recorder as the collector's tap, replacing any other.
func (fr *FlightRecorder) Attach(c *trace.Collector) { c.SetTap(fr.record) }

// record is the tap: append to the track's ring, trim, and auto-dump on a
// quarantine event.
func (fr *FlightRecorder) record(e trace.Event) {
	ring := append(fr.rings[e.Track], e)
	if len(ring) > fr.cap {
		ring = ring[len(ring)-fr.cap:]
	}
	fr.rings[e.Track] = ring
	if e.Name == quarantineEvent {
		fr.dumps = append(fr.dumps, Dump{
			Track: e.Track, Reason: quarantineEvent, At: e.Start,
			Events: append([]trace.Event(nil), ring...),
		})
	}
}

// DumpTrack cuts a dump of one track's current ring (for invariant-violation
// handlers). The dump is recorded and returned.
func (fr *FlightRecorder) DumpTrack(track, reason string, at sim.Time) Dump {
	d := Dump{Track: track, Reason: reason, At: at,
		Events: append([]trace.Event(nil), fr.rings[track]...)}
	fr.dumps = append(fr.dumps, d)
	return d
}

// DumpAll cuts a dump of every track's current ring, in sorted track order.
func (fr *FlightRecorder) DumpAll(reason string, at sim.Time) []Dump {
	tracks := make([]string, 0, len(fr.rings))
	for t := range fr.rings {
		tracks = append(tracks, t)
	}
	sort.Strings(tracks)
	out := make([]Dump, 0, len(tracks))
	for _, t := range tracks {
		out = append(out, fr.DumpTrack(t, reason, at))
	}
	return out
}

// Dumps returns the dumps cut so far, in capture order.
func (fr *FlightRecorder) Dumps() []Dump { return append([]Dump(nil), fr.dumps...) }

// String renders the dump as indented text, deterministic for identical
// inputs: newest events last, spans with duration and causal ids.
func (d Dump) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "flight dump [%s] at %v (%s), %d event(s):\n",
		d.Track, d.At, d.Reason, len(d.Events))
	for _, e := range d.Events {
		fmt.Fprintf(&b, "  %12v %-6s %s", e.Start, e.Cat, e.Name)
		if e.Dur > 0 {
			fmt.Fprintf(&b, " dur=%v", e.Dur)
		}
		if e.TraceID != 0 {
			fmt.Fprintf(&b, " trace=%#x", e.TraceID)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
