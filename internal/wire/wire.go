// Package wire defines stemd's binary protocol: the framing that carries
// cache operations between internal/client and internal/server over a TCP
// stream.
//
// Every frame — request or response — starts with a fixed 12-byte header:
//
//	offset size  field
//	0      1     magic (0x53, 'S')
//	1      1     version (currently 2)
//	2      1     opcode (requests) / echoed opcode (responses)
//	3      1     flags (requests) / status (responses)
//	4      4     request id, big endian (echoed verbatim in the response)
//	8      4     payload length, big endian
//
// followed by exactly payload-length bytes of opcode-specific payload. The
// request id is chosen by the client; because the server answers requests of
// one connection strictly in order, the id is not needed for correlation,
// but it lets a pipelining client assert that responses line up and makes
// frames self-describing in packet captures.
//
// Inside payloads, keys are uint16-length-prefixed byte strings and values
// are uint32-length-prefixed byte strings; batch payloads carry a uint16
// count first. All integers are big endian. TTLs travel as uint64
// nanoseconds in [0, 2^62], about 146 years: a TTL <= 0 (never expires)
// travels as 0, and a longer one is refused at the sender.
//
// Each opcode is described once, by a row of one table: its name, the
// fields its request and response payloads carry (always in the order
// token, TTL, key, value, keys, pairs, view, found-list), and whether a
// zero-copy decode may alias the read buffer. Only lookups (GET, DEL, MGET)
// alias; every other op, and any op added later, copies unless its row says
// otherwise. One encoder and one decoder per direction walk the rows, so
// each field's wire form and bound are written once and enforced on both
// ends: the encoder refuses every operand the decoder would refuse.
//
// A request with FlagTrace set carries a 16-byte trace extension (trace id,
// client send-timestamp micros) as a payload prefix ahead of the
// opcode-specific payload; the response echoes it — flagged by the status
// byte's high bit — extended to 24 bytes with the server's queue and handle
// timings (see TraceExt).
//
// A request with FlagTenant set carries a namespace prefix — a
// uint8-length-prefixed name of 1..MaxNamespaceLen bytes — after the trace
// extension (when present) and ahead of the opcode payload. The namespace
// scopes the request's keys to one tenant; a request without the flag
// belongs to the default tenant, so pre-tenant clients interoperate
// unchanged. Responses carry no namespace: the request's scope answers it.
//
// The decoder is strict: a frame with a bad magic, unknown version or
// opcode, a payload length beyond the configured limit, or a payload whose
// inner lengths disagree with the outer length is rejected with an error —
// never a panic, and never an allocation sized by unvalidated input (every
// inner length is bounds-checked against the bytes actually present before
// any allocation).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"
	"unsafe"
)

// Protocol constants.
const (
	// Magic is the first byte of every frame.
	Magic = 0x53
	// Version is the protocol version this package speaks. A frame carrying
	// any other version is rejected, so incompatible revisions fail fast at
	// the first frame instead of desynchronizing mid-stream. Version 2
	// renumbered the opcodes: a version-1 peer's frames would parse and
	// mis-dispatch, so they must fail here.
	Version = 2
	// HeaderLen is the fixed frame-header size in bytes.
	HeaderLen = 12
)

// Op enumerates the request opcodes.
type Op uint8

// Request opcodes. The zero value is invalid so that an uninitialized
// Request fails encoding.
const (
	OpInvalid Op = iota
	// OpPing checks liveness; empty payload both ways.
	OpPing
	// OpGet looks up one key; the response carries the value on StatusOK.
	OpGet
	// OpSet stores one key/value with the server's default TTL. With
	// FlagNX set it stores only if the key is absent and answers
	// StatusNotStored (plus the resident value) when it already exists.
	OpSet
	// OpSetTTL is OpSet with an explicit per-entry TTL in the payload.
	OpSetTTL
	// OpDel removes one key; StatusOK if it was resident, StatusNotFound
	// otherwise — the exactness of stemcache.Delete's report surfaces here.
	OpDel
	// OpMGet looks up a batch of keys in one frame.
	OpMGet
	// OpMSet stores a batch of key/value pairs in one frame.
	OpMSet
	// OpStats asks for the server's statistics snapshot (JSON payload).
	OpStats
	// OpLoad is the read-through lookup. A plain OpLoad carries one key and
	// the server answers with the cache's load-path classification:
	// StatusOK + value (fresh hit), StatusNotFound (cached negative),
	// StatusStale + token + value (stale hit; a nonzero token makes the
	// caller the refresh-lease holder), or StatusLease + token (miss; the
	// caller holds the fetch lease and must fill). With FlagFill set the
	// request is the second half of the exchange — token + key + value
	// (value omitted under FlagNegative) — installing the origin's answer
	// and releasing the lease; the server answers StatusOK on success or
	// StatusNotStored when the token no longer matches the live lease.
	OpLoad
	// OpView pushes a membership view to a node after any lifecycle event
	// (bootstrap, join, leave, failure-detector death): the payload carries
	// the membership epoch, the full member table, and the replica
	// assignments. The node's membership agent reconciles peers and replica
	// fan-out targets from it. The response is status-only (StatusErr when
	// the node has no agent).
	OpView
	// OpReplicate applies one replicated write on a replica node: the
	// payload carries TTL + key + value (key only under FlagNegative, which
	// replicates a delete). The receiver applies it to its cache directly
	// and never fans it out again, so replication cannot cycle.
	OpReplicate

	opMax // one past the last valid opcode
)

// String names the opcode for logs and errors.
func (o Op) String() string {
	if o.Valid() {
		return ops[o].name
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// Valid reports whether o is a known request opcode.
func (o Op) Valid() bool { return o > OpInvalid && o < opMax }

// Request flag bits.
const (
	// FlagNX makes OpSet/OpSetTTL store only when the key is absent
	// (stemcache.GetOrSet); the response reports StatusNotStored with the
	// resident value when the key already existed.
	FlagNX uint8 = 1 << 0
	// FlagTrace marks a request carrying a trace extension: a 16-byte
	// prefix (trace id + client send timestamp) ahead of the opcode payload.
	// The server echoes the extension on the response — extended with its
	// own queue and handle timings — so the client can split each traced
	// op's latency into network and server components (see TraceExt).
	FlagTrace uint8 = 1 << 1
	// FlagFill marks an OpLoad request as a lease fill: the payload carries
	// the lease token, the key, and the origin's value, completing the
	// read-through exchange the earlier StatusLease/StatusStale response
	// opened.
	FlagFill uint8 = 1 << 2
	// FlagNegative modifies an OpLoad fill: the origin reported the key
	// absent, so the payload carries token + key only and the server caches
	// the absence (a negative marker) instead of a value.
	FlagNegative uint8 = 1 << 3
	// FlagTenant marks a request carrying a namespace prefix: a
	// uint8-length-prefixed tenant name after the trace extension (when
	// present), ahead of the opcode payload. Absent flag = default tenant.
	FlagTenant uint8 = 1 << 4
	// FlagDemand asks the server to piggyback its NodeDemand snapshot on
	// the response (flagged by the status byte's bit 6, ahead of the opcode
	// payload). It adds no request payload, so any opcode can carry it —
	// this is how demand dissemination rides existing response traffic
	// instead of a polling sidecar, and how heartbeats (PING with this flag)
	// double as gossip. It is the only way a NodeDemand travels.
	FlagDemand uint8 = 1 << 5
)

// MaxNamespaceLen caps a namespace name's byte length. It matches
// tenant.MaxNameLen, so every name the wire accepts is registrable.
const MaxNamespaceLen = 64

// respFlagTrace marks a traced response. Responses have no flags byte —
// byte 3 carries the status — so the trace bit rides the status byte's high
// bit, which no Status value can reach (statusMax is tiny and the decoder
// rejects unknown statuses). The decoder masks it off before validating.
const respFlagTrace uint8 = 1 << 7

// respFlagDemand marks a response carrying a piggybacked NodeDemand prefix
// (the answer to a FlagDemand request). Like respFlagTrace it rides an
// unreachable status-byte bit; the 52-byte demand prefix sits after the
// trace extension (when present), ahead of the opcode payload.
const respFlagDemand uint8 = 1 << 6

// TraceExt is the optional per-request trace extension enabled by
// FlagTrace. On requests only ID and SendMicros travel (16 bytes); on
// responses the server echoes both and appends its queue and handle timings
// (24 bytes). All timestamps are microseconds.
//
// The micros fields are intentionally asymmetric: SendMicros is an opaque
// client clock reading (only ever compared against the same client's clock,
// so it needs the full 64-bit range), while QueueMicros/HandleMicros are
// durations measured by the server and saturate at ~71 minutes — far beyond
// any plausible request timeout.
type TraceExt struct {
	// ID is the client-chosen trace id, echoed verbatim by the server and
	// attached to the server's slow-request events — the join key between
	// client-side samples and server-side traces.
	ID uint64
	// SendMicros is the client's send timestamp on its own monotonic clock,
	// echoed verbatim. The client computes total latency as now−SendMicros
	// without trusting the server's clock.
	SendMicros uint64
	// QueueMicros is the server-side time from accepting the frame to the
	// request being fully decoded (read + decode). Response-only.
	QueueMicros uint32
	// HandleMicros is the server-side time spent executing the cache
	// operation. Response-only.
	HandleMicros uint32
}

// Trace extension payload-prefix sizes.
const (
	traceReqLen  = 8 + 8         // ID + SendMicros
	traceRespLen = 8 + 8 + 4 + 4 // + QueueMicros + HandleMicros
)

// SaturateMicros converts a duration to whole microseconds, clamped to the
// uint32 range used by the response trace timings.
func SaturateMicros(d time.Duration) uint32 {
	us := d.Microseconds()
	switch {
	case us < 0:
		return 0
	case us > math.MaxUint32:
		return math.MaxUint32
	}
	return uint32(us)
}

// Status enumerates response outcomes.
type Status uint8

// Response statuses.
const (
	// StatusOK is success; payload depends on the opcode.
	StatusOK Status = iota
	// StatusNotFound answers OpGet/OpDel for an absent (or expired) key.
	StatusNotFound
	// StatusNotStored answers a FlagNX store whose key already existed; the
	// payload carries the resident value.
	StatusNotStored
	// StatusErr reports a server-side failure; the payload is a
	// human-readable message.
	StatusErr
	// StatusStale answers OpLoad when the key is resident but past its
	// freshness deadline: the payload carries a uint64 refresh token and
	// the stale value. A nonzero token means this caller won the refresh
	// lease and should fetch the origin and fill in the background; zero
	// means another client already holds it — just use the stale value.
	StatusStale
	// StatusLease answers OpLoad on a miss no one is fetching yet: the
	// payload is the uint64 lease token. The caller must fetch the origin
	// and send OpLoad|FlagFill with the token (other clients for the same
	// key block on the lease server-side, so the fleet performs one origin
	// fetch per miss).
	StatusLease

	statusMax
)

// String names the status for logs and errors.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "OK"
	case StatusNotFound:
		return "NOT_FOUND"
	case StatusNotStored:
		return "NOT_STORED"
	case StatusErr:
		return "ERR"
	case StatusStale:
		return "STALE"
	case StatusLease:
		return "LEASE"
	default:
		return fmt.Sprintf("Status(%d)", uint8(s))
	}
}

// Valid reports whether s is a known status.
func (s Status) Valid() bool { return s < statusMax }

// Limits bounds what the decoder will accept. The zero value selects the
// defaults; a server and its clients must agree (a frame larger than the
// receiver's limit is rejected, which surfaces as a protocol error).
type Limits struct {
	// MaxValueLen caps one value's byte length. Default 4 MiB.
	MaxValueLen int
	// MaxBatch caps the entry count of MGET/MSET frames. Default 1024
	// (the uint16 count field caps it at 65535 regardless).
	MaxBatch int
	// MaxPayload caps a whole frame's payload — the first line of defense
	// against hostile headers, checked before the payload is read or
	// allocated. Default 64 MiB; it additionally bounds batches (a batch
	// legal by count can still exceed the frame cap).
	MaxPayload int
}

// Default limit values.
const (
	DefaultMaxValueLen = 4 << 20
	DefaultMaxBatch    = 1024
	DefaultMaxPayload  = 64 << 20
	// MaxKeyLen is fixed by the uint16 key-length prefix.
	MaxKeyLen = 1<<16 - 1
)

// withDefaults normalizes zero fields.
func (l Limits) withDefaults() Limits {
	if l.MaxValueLen <= 0 {
		l.MaxValueLen = DefaultMaxValueLen
	}
	if l.MaxBatch <= 0 {
		l.MaxBatch = DefaultMaxBatch
	}
	if l.MaxBatch > 1<<16-1 {
		l.MaxBatch = 1<<16 - 1
	}
	if l.MaxPayload <= 0 {
		l.MaxPayload = DefaultMaxPayload
	}
	return l
}

// KV is one key/value pair of an MSET batch.
type KV struct {
	Key   string
	Value []byte
}

// MemberState is a member's lifecycle state in a pushed membership view.
type MemberState uint8

// Member lifecycle states. The wire rejects anything else, so a corrupted
// state byte fails the frame instead of inventing a lifecycle.
const (
	// MemberAlive is a serving member: it owns slots, accepts replicas,
	// and is heartbeated by the failure detector.
	MemberAlive MemberState = iota
	// MemberLeft is a gracefully departed member: its slots were migrated
	// away before the push that carries this state.
	MemberLeft
	// MemberDead is a member the failure detector declared dead: its slots
	// were failed over to replicas, possibly losing unreplicated entries.
	MemberDead

	memberStateMax
)

// String names the member state for logs and errors.
func (s MemberState) String() string {
	switch s {
	case MemberAlive:
		return "alive"
	case MemberLeft:
		return "left"
	case MemberDead:
		return "dead"
	default:
		return fmt.Sprintf("MemberState(%d)", uint8(s))
	}
}

// Member is one row of the member table pushed by OpView: a node's
// cluster id, lifecycle state, and dialable address.
type Member struct {
	ID    uint32
	State MemberState
	Addr  string
}

// ReplicaSet assigns a slot's replica nodes, pushed by OpView. The
// owner is not listed — the ring answers ownership; Replicas are the extra
// copies the owner fans writes out to.
type ReplicaSet struct {
	Slot     uint32
	Replicas []uint32
}

// NodeDemand is the snapshot a FlagDemand response piggybacks: one node's
// aggregate capacity-demand signal, derived from its cache's per-set SCDM
// monitors (stemcache.Demand). The cluster rebalancer reads these to
// classify whole nodes as takers (starved: most sets' SC_S saturated) or
// givers (slack: most sets' SC_S MSB clear), mirroring the paper's set-level
// roles one level up. It travels as a fixed 52-byte big-endian prefix so
// carrying it costs a response 52 bytes, not a JSON parse.
type NodeDemand struct {
	// NodeID identifies the answering node within its cluster (the
	// server's configured id; 0 when unconfigured).
	NodeID uint32
	// Sets is the cache's total set count.
	Sets uint32
	// TakerSets counts sets whose SC_S is saturated.
	TakerSets uint32
	// GiverSets counts sets whose SC_S MSB is clear.
	GiverSets uint32
	// CoupledSets counts sets currently in a taker-giver association.
	CoupledSets uint32
	// ScSSum is the sum of all sets' SC_S counters; ScSMax is the
	// saturation denominator (Sets × counter max).
	ScSSum uint64
	ScSMax uint64
	// Live and Capacity are the cache's resident entry count and
	// normalized entry capacity.
	Live     uint64
	Capacity uint64
}

// nodeDemandLen is the fixed demand prefix size: five uint32 fields plus
// four uint64 fields.
const nodeDemandLen = 5*4 + 4*8

// TakerFrac returns the fraction of sets classified as takers, in [0, 1].
func (d NodeDemand) TakerFrac() float64 {
	if d.Sets == 0 {
		return 0
	}
	return float64(d.TakerSets) / float64(d.Sets)
}

// Saturation returns the mean SC_S saturation across sets, in [0, 1].
func (d NodeDemand) Saturation() float64 {
	if d.ScSMax == 0 {
		return 0
	}
	return float64(d.ScSSum) / float64(d.ScSMax)
}

// Request is the decoded form of one request frame.
type Request struct {
	// Op selects the operation.
	Op Op
	// ID is the client-chosen request id, echoed in the response.
	ID uint32
	// Flags carries the Flag* bits (FlagNX on stores).
	Flags uint8
	// Key is the single-key operand (GET/SET/SETTTL/DEL).
	Key string
	// Value is the single-value operand (SET/SETTTL).
	Value []byte
	// TTL is the per-entry time-to-live (SETTTL only); <= 0 never expires.
	TTL time.Duration
	// Keys is the MGET operand.
	Keys []string
	// Pairs is the MSET operand.
	Pairs []KV
	// Token is the lease token of an OpLoad fill (FlagFill set): the uint64
	// the server issued with StatusLease or StatusStale, proving this
	// client is the one elected to fetch the origin.
	Token uint64
	// Trace is the optional trace extension. Non-nil requests are encoded
	// with FlagTrace set and the 16-byte trace prefix ahead of the opcode
	// payload; decoding a FlagTrace frame populates it.
	Trace *TraceExt
	// Namespace scopes the request's keys to one tenant. A non-empty
	// Namespace is encoded with FlagTenant set and the namespace prefix on
	// the wire; empty means the default tenant (no flag, no prefix). In
	// zero-copy decodes of GET, DEL and MGET the string aliases the frame
	// buffer — valid only until the buffer is reused — so a receiver that
	// retains it must copy (the server's tenant registry clones on
	// registration).
	Namespace string
	// Epoch is the membership epoch of an OpView push. Epochs are
	// monotone per cluster, so an agent discards a view older than the one
	// it holds (pushes can race).
	Epoch uint64
	// Members is the full member table of an OpView push.
	Members []Member
	// Replicas is the replica-assignment table of an OpView push,
	// scoped to the slots the receiving node owns.
	Replicas []ReplicaSet
}

// Reset clears req for reuse while keeping the Keys and Pairs backing
// arrays, so a Request reused across frames (DecodeRequestInto) reaches a
// steady state with no per-frame slice growth.
func (req *Request) Reset() {
	keys, pairs := req.Keys[:0], req.Pairs[:0]
	*req = Request{Keys: keys, Pairs: pairs}
}

// Response is the decoded form of one response frame.
type Response struct {
	// Op echoes the request opcode.
	Op Op
	// ID echoes the request id.
	ID uint32
	// Status is the outcome.
	Status Status
	// Value carries: the GET value (StatusOK), the resident value of a
	// refused FlagNX store (StatusNotStored), the STATS JSON document, or
	// the StatusErr message bytes.
	Value []byte
	// Found answers MGET per key: Found[i] reports whether Keys[i] was
	// resident; Values[i] is its value when found (nil otherwise).
	Found []bool
	// Values answers MGET (parallel to Found).
	Values [][]byte
	// Token carries the OpLoad lease token: the fetch lease on StatusLease,
	// or the refresh lease on StatusStale (zero when another client holds
	// it). Zero on every other status.
	Token uint64
	// Trace echoes the request's trace extension with the server timings
	// filled in. It travels as a 24-byte payload prefix on every traced
	// response — including StatusErr, so a failing traced request still
	// yields a latency sample.
	Trace *TraceExt
	// Piggyback is the demand snapshot answering a FlagDemand request. It
	// travels as a 52-byte payload prefix after the trace extension —
	// flagged by the status byte's bit 6 — on any opcode's response, which
	// is what makes demand dissemination ride existing traffic.
	Piggyback *NodeDemand
}

// Reset clears resp for reuse while keeping the Found and Values backing
// arrays (see Request.Reset). The server's handler resets its reused
// Response with this before filling it, so MGET replies append into warm
// capacity.
func (resp *Response) Reset() {
	found, values := resp.Found[:0], resp.Values[:0]
	*resp = Response{Found: found, Values: values}
}

// ErrFrame is the base error wrapped by every decoder rejection, so callers
// can distinguish protocol corruption (close the connection) from I/O errors
// (maybe retry).
var ErrFrame = errors.New("wire: malformed frame")

func frameErrf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrFrame, fmt.Sprintf(format, args...))
}

// header assembles the fixed 12-byte frame header.
func header(op Op, fl uint8, id uint32, payloadLen int) [HeaderLen]byte {
	var h [HeaderLen]byte
	h[0] = Magic
	h[1] = Version
	h[2] = uint8(op)
	h[3] = fl
	binary.BigEndian.PutUint32(h[4:8], id)
	binary.BigEndian.PutUint32(h[8:12], uint32(payloadLen))
	return h
}

// parseHeader validates the fixed header and returns opcode byte, flags byte
// and payload length.
func parseHeader(h []byte, maxPayload int) (op, fl uint8, n int, err error) {
	if len(h) < HeaderLen {
		return 0, 0, 0, frameErrf("short header: %d bytes", len(h))
	}
	if h[0] != Magic {
		return 0, 0, 0, frameErrf("bad magic 0x%02x", h[0])
	}
	if h[1] != Version {
		return 0, 0, 0, frameErrf("unsupported version %d (want %d)", h[1], Version)
	}
	n64 := binary.BigEndian.Uint32(h[8:12])
	if uint64(n64) > uint64(maxPayload) {
		return 0, 0, 0, frameErrf("payload length %d exceeds limit %d", n64, maxPayload)
	}
	return h[2], h[3], int(n64), nil
}

// cursor is a bounds-checked reader over one frame's payload bytes. With
// alias set (a zero-copy decode of an op whose row allows it, see
// openFrame), bytes hands out views of the frame buffer instead of copies.
type cursor struct {
	b     []byte
	off   int
	alias bool
}

func (c *cursor) remaining() int { return len(c.b) - c.off }

func (c *cursor) take(n int) ([]byte, error) {
	if n < 0 || n > c.remaining() {
		return nil, c.truncated(n)
	}
	s := c.b[c.off : c.off+n]
	c.off += n
	return s, nil
}

// truncated is the error of take and bytes when fewer than n bytes remain.
func (c *cursor) truncated(n int) error {
	return frameErrf("truncated payload: need %d bytes, have %d", n, c.remaining())
}

// bytes takes n bytes for a decoded operand: a view of the frame buffer
// under alias, otherwise a copy the caller may retain. It repeats take's
// bounds check rather than calling it, which keeps one call per operand.
func (c *cursor) bytes(n int) ([]byte, error) {
	if n > c.remaining() {
		return nil, c.truncated(n)
	}
	s := c.b[c.off : c.off+n]
	c.off += n
	if c.alias {
		return s, nil
	}
	// Copying is the contract of the retaining decodes and of every op
	// without alias; GET, DEL and MGET on the Into path alias instead.
	out := make([]byte, len(s))
	copy(out, s)
	return out, nil
}

func (c *cursor) u16() (uint16, error) {
	s, err := c.take(2)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint16(s), nil
}

func (c *cursor) u32() (uint32, error) {
	s, err := c.take(4)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint32(s), nil
}

func (c *cursor) u64() (uint64, error) {
	s, err := c.take(8)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint64(s), nil
}

// unsafeString views b as a string without copying. Safe because b is
// either a private copy or, under alias, a frame buffer the decoder never
// mutates and the caller keeps alive for as long as it uses the decoded
// operands (see DecodeRequestInto); cursor.bytes makes that choice.
func unsafeString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// done errors unless the payload was consumed exactly.
func (c *cursor) done() error {
	if c.remaining() != 0 {
		return frameErrf("%d trailing payload bytes", c.remaining())
	}
	return nil
}
