package core

import (
	"fmt"
	"time"

	"sperke/internal/tiling"
)

// EventKind tags a session event.
type EventKind int

// Session event kinds, in rough pipeline order.
const (
	// EventPlanned: an interval's super chunk and OOS plan were decided.
	EventPlanned EventKind = iota
	// eventFetched: a tile chunk arrived.
	eventFetched
	// EventDropped: a best-effort tile chunk was lost in transit.
	EventDropped
	// EventUpgraded: an incremental upgrade completed (§3.1.1).
	EventUpgraded
	// EventUrgent: an HMP correction forced a rush fetch (Table 1).
	EventUrgent
	// EventPlay: an interval began displaying.
	EventPlay
	// EventStall: playback rebuffered.
	EventStall
)

var eventNames = [...]string{
	"planned", "fetched", "dropped", "upgraded", "urgent", "play", "stall",
}

func (k EventKind) String() string {
	if k < 0 || int(k) >= len(eventNames) {
		return fmt.Sprintf("event(%d)", int(k))
	}
	return eventNames[k]
}

// Event is one observable step of a streaming session. The zero tile
// (-1) marks interval-level events.
type Event struct {
	At       time.Duration
	Kind     EventKind
	Interval int
	Tile     tiling.TileID // -1 for interval-level events
	Quality  int
	Bytes    int64
	// Dur carries the stall length for EventStall, the play span for
	// EventPlay.
	Dur time.Duration
}

func (e Event) String() string {
	switch e.Kind {
	case EventStall:
		return fmt.Sprintf("%8s %-8s interval=%d dur=%v",
			e.At.Round(time.Millisecond), e.Kind, e.Interval, e.Dur.Round(time.Millisecond))
	case EventPlay:
		return fmt.Sprintf("%8s %-8s interval=%d q̄=%d",
			e.At.Round(time.Millisecond), e.Kind, e.Interval, e.Quality)
	case EventPlanned:
		return fmt.Sprintf("%8s %-8s interval=%d q=%d",
			e.At.Round(time.Millisecond), e.Kind, e.Interval, e.Quality)
	default:
		return fmt.Sprintf("%8s %-8s interval=%d tile=%d q=%d bytes=%d",
			e.At.Round(time.Millisecond), e.Kind, e.Interval, e.Tile, e.Quality, e.Bytes)
	}
}

// emit delivers an event to the configured observer, if any.
func (s *Session) emit(kind EventKind, interval int, tile tiling.TileID, quality int, bytes int64, dur time.Duration) {
	if s.cfg.Observer == nil {
		return
	}
	s.cfg.Observer(Event{
		At:       s.clock.Now(),
		Kind:     kind,
		Interval: interval,
		Tile:     tile,
		Quality:  quality,
		Bytes:    bytes,
		Dur:      dur,
	})
}
