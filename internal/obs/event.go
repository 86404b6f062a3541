package obs

import (
	"encoding/json"
	"fmt"
)

// EventType enumerates the STEM/SBC mechanism events the schemes emit.
type EventType uint8

const (
	// EvNone is the zero value; never emitted.
	EvNone EventType = iota
	// EvShadowHit: a missing block's signature hit the set's shadow
	// directory (STEM §4.3) — the raw evidence both SCDM counters feed on.
	EvShadowHit
	// EvPolicySwap: SC_T saturated and the set exchanged its replacement
	// policy with the shadow's opposite (STEM §4.4).
	EvPolicySwap
	// EvClassChange: the set's spatial classification (taker / neutral /
	// giver, derived from SC_S) changed.
	EvClassChange
	// EvCouple: a taker was paired with a giver through the association
	// table (STEM §4.5 / SBC association).
	EvCouple
	// EvDecouple: a pair dissolved after the giver evicted its last
	// cooperatively cached block (STEM §4.7 / SBC dissolution).
	EvDecouple
	// EvSpill: a taker's local victim was placed in its partner instead of
	// leaving the chip.
	EvSpill
	// EvReceive: the partner set accepted a spilled block.
	EvReceive
	// EvSnapshot: a periodic run snapshot (emitted by the run harness, not
	// the schemes); Event.Snap carries the payload.
	EvSnapshot
	// EvSlowRequest: a served request exceeded the server's slow-request
	// threshold. Tick is the server's request sequence number, Set is -1,
	// Op names the opcode, Micros is the request's server-side duration
	// (decode + handle), and Trace carries the request's trace ID when the
	// client sent one (0 otherwise) — the join key that lets stemtrace read
	// a latency spike against concurrent membership events.
	EvSlowRequest
	// EvNodeJoin: a node joined the cluster and the membership manager
	// handed it its fair share of slots. Field reuse: Tick is the view
	// epoch, Set the new node's id, Life the number of slots moved to it.
	EvNodeJoin
	// EvNodeLeave: a node left gracefully; its slots were migrated away
	// before the view changed. Tick is the view epoch, Set the departed
	// node's id, Life the number of slots moved off it.
	EvNodeLeave
	// EvNodeDead: the membership manager failed a node over after
	// SuspectAfter consecutive missed heartbeats. Tick is the view epoch,
	// Set the dead node's id, Life the number of its slots promoted.
	EvNodeDead
	// EvReplicaPromote: failover flipped a slot's ownership to one of its
	// replicas — a pure flip, the data was already there. Tick is the view
	// epoch, Set the slot id, ScS the dead owner, Partner the promoted
	// replica.
	EvReplicaPromote
	// EvReplicaPlace: the manager placed a new replica copy of a slot and
	// backfilled its data. Tick is the view epoch, Set the slot id, ScS
	// the copy's source (the owner), Partner the new replica host, Life
	// the number of keys copied.
	EvReplicaPlace

	// evLast is the highest defined event type; sizing and iteration over
	// all event types use it so new events extend one place.
	evLast = EvReplicaPlace
)

var eventNames = map[EventType]string{
	EvShadowHit:      "shadow_hit",
	EvPolicySwap:     "policy_swap",
	EvClassChange:    "class_change",
	EvCouple:         "couple",
	EvDecouple:       "decouple",
	EvSpill:          "spill",
	EvReceive:        "receive",
	EvSnapshot:       "snapshot",
	EvSlowRequest:    "slow_request",
	EvNodeJoin:       "node_join",
	EvNodeLeave:      "node_leave",
	EvNodeDead:       "node_dead",
	EvReplicaPromote: "replica_promote",
	EvReplicaPlace:   "replica_place",
}

// String returns the JSONL wire name of the event type.
func (t EventType) String() string {
	if n, ok := eventNames[t]; ok {
		return n
	}
	return fmt.Sprintf("event(%d)", uint8(t))
}

// MarshalJSON writes the symbolic name.
func (t EventType) MarshalJSON() ([]byte, error) { return json.Marshal(t.String()) }

// UnmarshalJSON parses the symbolic name.
func (t *EventType) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	for k, n := range eventNames {
		if n == s {
			*t = k
			return nil
		}
	}
	return fmt.Errorf("obs: unknown event type %q", s)
}

// Event is one structured trace record. Tick is the emitting cache's access
// count at the time of the event (monotonic over the cache's lifetime,
// never reset); Set is the primary set index (-1 for run-level events).
// ScS/ScT carry the SCDM counter values after the triggering update — for
// SBC, which has a single saturation counter, ScS holds it and ScT is 0.
type Event struct {
	Type    EventType `json:"ev"`
	Tick    uint64    `json:"tick"`
	Set     int       `json:"set"`
	Partner int       `json:"partner,omitempty"`
	ScS     int       `json:"scs,omitempty"`
	ScT     int       `json:"sct,omitempty"`
	// Class is the new spatial classification on EvClassChange:
	// "taker", "giver" or "neutral".
	Class string `json:"class,omitempty"`
	// Policy is the set's new replacement policy on EvPolicySwap.
	Policy string `json:"policy,omitempty"`
	// Life is the association lifetime in ticks, set on EvDecouple.
	Life uint64 `json:"life,omitempty"`
	// Op is the wire opcode name on EvSlowRequest ("get", "mset", ...).
	Op string `json:"op,omitempty"`
	// Micros is the request's server-side duration on EvSlowRequest.
	Micros uint64 `json:"us,omitempty"`
	// Trace is the request's trace ID on EvSlowRequest (0 = untraced).
	Trace uint64 `json:"trace,omitempty"`
	// Snap is the payload of EvSnapshot events.
	Snap *Snapshot `json:"snap,omitempty"`
}

// Observer consumes mechanism events. Implementations must be cheap: the
// schemes call Event synchronously from the Access path.
type Observer interface {
	Event(Event)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(Event)

// Event implements Observer.
func (f ObserverFunc) Event(e Event) { f(e) }

// Instrumented is implemented by cache schemes that can emit mechanism
// events (STEM, SBC). SetObserver(nil) detaches and restores the
// zero-overhead path.
type Instrumented interface {
	SetObserver(Observer)
}

// NewRegistryObserver returns an Observer that folds the event stream into
// reg — one "events.<type>" counter per event type plus an
// "events.couple_lifetime" histogram of association lifetimes in ticks — and
// then forwards to next (which may be nil).
func NewRegistryObserver(reg *Registry, next Observer) Observer {
	ro := &registryObserver{next: next, life: reg.Latency("events.couple_lifetime")}
	for t := EvShadowHit; t <= evLast; t++ {
		ro.counts[t] = reg.Counter("events." + t.String())
	}
	return ro
}

type registryObserver struct {
	counts [evLast + 1]*Counter
	life   *LatencyHistogram
	next   Observer
}

func (r *registryObserver) Event(e Event) {
	if int(e.Type) < len(r.counts) {
		r.counts[e.Type].Inc()
	}
	if e.Type == EvDecouple {
		r.life.Observe(e.Life)
	}
	if r.next != nil {
		r.next.Event(e)
	}
}
