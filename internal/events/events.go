// Package events is the in-process live event bus of the delivery runtime.
// The fixed-form and adaptive engines publish typed lifecycle events
// (session.started, response.submitted, session.finished, session.expired,
// adaptive.*) and any number of subscribers — the livestats streaming
// aggregator, SSE connections fanned out by internal/httpapi, tests —
// observe them without touching the engines' hot paths.
//
// Contract:
//
//   - Publish NEVER blocks the emitter. Sequence assignment, replay-ring
//     append and per-subscriber enqueue are memory operations under short
//     locks; the optional durable log is fed through a non-blocking channel
//     drained by its own writer goroutine.
//   - Every event carries a per-exam monotonic sequence number (Seq) and a
//     bus-wide one (GlobalSeq). Per-exam sequences are the resume tokens of
//     the SSE endpoints' Last-Event-ID protocol.
//   - Subscriber queues are bounded. A consumer that falls behind loses the
//     OLDEST queued events (the emitter is never throttled); the loss is
//     made explicit by a TypeGap marker event carrying the dropped count,
//     delivered in-stream before the first event after the gap.
//   - With Options.Log set, every published event is also appended to a
//     durable JSONL log (fsync policy reused from the bank WAL machinery),
//     so Subscribe can replay events from an offset that predates the
//     in-memory replay ring — including across process restarts, since the
//     log restores the sequence counters on open.
package events

import (
	"context"
	"encoding/json"
	"sync"
	"time"

	"mineassess/internal/obs"
	"mineassess/internal/trace"
)

// Type names an event kind. The values are wire-stable: they appear as SSE
// event names and in the durable log.
type Type string

// Event types published by the engines, plus the stream-control marker.
const (
	// SessionStarted: a fixed-form sitting opened (Problems carries the
	// presentation order, Total its length).
	SessionStarted Type = "session.started"
	// ResponseSubmitted: one graded answer landed (Correct/Credit,
	// Answered/Total progress).
	ResponseSubmitted Type = "response.submitted"
	// SessionFinished: a sitting closed normally (Score/MaxScore finalized).
	SessionFinished Type = "session.finished"
	// SessionExpired: the clock ran out (Score/MaxScore over what was
	// answered in time).
	SessionExpired Type = "session.expired"
	// AdaptiveStarted / AdaptiveResponded / AdaptiveFinished mirror the CAT
	// engine's lifecycle; Theta/SE carry the running ability estimate.
	AdaptiveStarted   Type = "adaptive.started"
	AdaptiveResponded Type = "adaptive.responded"
	AdaptiveFinished  Type = "adaptive.finished"
	// TypeGap is the slow-consumer marker: Dropped events were discarded
	// from this subscription between the previous event and the next one.
	// Gap markers have no sequence numbers (they are per-subscription, not
	// part of the exam's event history).
	TypeGap Type = "stream.gap"
)

// Event is one published occurrence. Fields beyond the identity block are
// populated per type (see the Type constants); zero values are omitted on
// the wire.
type Event struct {
	// Seq is the per-exam monotonic sequence number, assigned by the bus.
	Seq uint64 `json:"seq,omitempty"`
	// GlobalSeq is the bus-wide monotonic sequence number.
	GlobalSeq uint64 `json:"globalSeq,omitempty"`
	Type      Type   `json:"type"`
	ExamID    string `json:"examId,omitempty"`
	SessionID string `json:"sessionId,omitempty"`
	StudentID string `json:"studentId,omitempty"`
	ProblemID string `json:"problemId,omitempty"`
	// Problems is the presentation order (session.started only).
	Problems []string `json:"problems,omitempty"`
	Correct  bool     `json:"correct,omitempty"`
	Credit   float64  `json:"credit,omitempty"`
	Answered int      `json:"answered,omitempty"`
	Total    int      `json:"total,omitempty"`
	Score    float64  `json:"score,omitempty"`
	MaxScore float64  `json:"maxScore,omitempty"`
	Theta    float64  `json:"theta,omitempty"`
	SE       float64  `json:"se,omitempty"`
	// StopReason is the adaptive stopping rule that fired (adaptive.finished).
	StopReason string `json:"stopReason,omitempty"`
	// Dropped is the number of events discarded before this TypeGap marker.
	Dropped int       `json:"dropped,omitempty"`
	At      time.Time `json:"at,omitempty"`

	// enc caches the JSON encoding, shared by every copy of a published
	// event (rings, subscriber queues, the durable log). Unexported, so
	// encoding/json skips it. See AppendJSON.
	enc *encodedEvent
}

// encodedEvent is the shared marshal-once cell attached by Publish: however
// many subscribers, SSE frames and durable-log appends consume an event, its
// JSON encoding is computed at most once.
type encodedEvent struct {
	once sync.Once
	data []byte
	err  error
}

// AppendJSON appends the event's JSON encoding to dst. Published events
// carry a shared cache, so concurrent consumers (64 SSE connections, the log
// writer) all reuse one encoding; synthetic events without the cache (gap
// markers built per subscription) marshal directly.
func (e *Event) AppendJSON(dst []byte) ([]byte, error) {
	if e.enc == nil {
		raw, err := json.Marshal(e)
		if err != nil {
			return dst, err
		}
		return append(dst, raw...), nil
	}
	e.enc.once.Do(func() { e.enc.data, e.enc.err = json.Marshal(e) })
	if e.enc.err != nil {
		return dst, e.enc.err
	}
	return append(dst, e.enc.data...), nil
}

// DefaultRing is the per-exam (and global) replay-ring capacity when
// Options.Ring is 0: reconnecting subscribers can resume this many events
// back without the durable log.
const DefaultRing = 1024

// DefaultBuffer is a subscription's pending-queue capacity when
// SubscribeOptions.Buffer is 0.
const DefaultBuffer = 256

// Options configures a Bus.
type Options struct {
	// Ring bounds the in-memory replay rings (per exam, plus one global);
	// 0 means DefaultRing, negative disables the rings (with a Log
	// attached, Subscribe replay is then served from the durable log
	// alone, announcing a gap for anything not yet flushed).
	Ring int
	// Log, when non-nil, makes every published event durable; the bus takes
	// ownership and closes it on Close. The log's restored sequence
	// counters seed the bus so numbering continues across restarts.
	Log *Log
	// Now is the event timestamp clock; nil means wall-clock time.
	Now func() time.Time
	// Obs, when non-nil, receives the bus's metrics: publish count, drops,
	// gap emissions, per-subscriber queue high-water, active subscribers,
	// ring occupancy. Nil leaves the fan-out path uninstrumented.
	Obs *obs.Registry
}

// Bus is the fan-out hub. The zero value is not usable; build with NewBus.
// A nil *Bus is a valid "disabled" bus: Publish on it is a no-op, so the
// engines can emit unconditionally.
type Bus struct {
	now func() time.Time
	log *Log

	mu      sync.Mutex
	closed  bool
	seqs    map[string]uint64 // per-exam counters
	global  uint64
	rings   map[string]*ring // per-exam replay rings
	allRing *ring            // global replay ring (firehose resume)
	ringCap int
	subs    map[*Subscription]struct{}

	// Metrics cells, nil unless Options.Obs was set (handles are nil-safe,
	// so the record sites below are unconditional).
	mPublished *obs.Counter // events accepted by Publish
	mDropped   *obs.Counter // drop-oldest discards across all subscriptions
	mGaps      *obs.Counter // stream.gap markers emitted
	mQueueHW   *obs.Gauge   // high-water mark of any subscriber queue
}

// NewBus builds a bus.
func NewBus(o Options) *Bus {
	if o.Now == nil {
		o.Now = time.Now
	}
	ringCap := o.Ring
	if ringCap == 0 {
		ringCap = DefaultRing
	}
	b := &Bus{
		now:     o.Now,
		log:     o.Log,
		seqs:    make(map[string]uint64),
		rings:   make(map[string]*ring),
		ringCap: ringCap,
		subs:    make(map[*Subscription]struct{}),
	}
	if ringCap > 0 {
		b.allRing = newRing(ringCap)
	}
	if o.Log != nil {
		// Continue numbering where the durable log left off.
		for exam, seq := range o.Log.examSeqs {
			b.seqs[exam] = seq
		}
		b.global = o.Log.globalSeq
	}
	if reg := o.Obs; reg != nil {
		b.mPublished = reg.Counter("events_published_total", "Events accepted by the bus.")
		b.mDropped = reg.Counter("events_dropped_total",
			"Events discarded by drop-oldest across all subscriber queues.")
		b.mGaps = reg.Counter("events_gap_total", "stream.gap markers emitted to subscribers.")
		b.mQueueHW = reg.Gauge("events_queue_highwater",
			"Deepest any subscriber queue has ever been.")
		reg.GaugeFunc("events_subscribers", "Registered subscriptions.",
			func() float64 { return float64(b.Subscribers()) })
		reg.GaugeFunc("events_ring_entries", "Events retained in the global replay ring.",
			func() float64 {
				b.mu.Lock()
				defer b.mu.Unlock()
				if b.allRing == nil {
					return 0
				}
				return float64(b.allRing.count)
			})
		if b.log != nil {
			reg.GaugeFunc("events_log_dropped", "Events the durable log's queue rejected.",
				func() float64 { return float64(b.log.Dropped()) })
		}
	}
	return b
}

// Publish assigns sequence numbers and timestamps the event, then fans it
// out: replay rings, durable log (asynchronously), every matching
// subscriber. It never blocks and is safe from any goroutine; on a nil or
// closed bus it is a no-op.
func (b *Bus) Publish(e Event) { b.PublishCtx(context.Background(), e) }

// PublishCtx is Publish under a context: on a traced context the publish
// appears in the request's span tree as a "bus.publish" leaf with the
// event type attached. Emit sites that fire after the persist step pass a
// trace.Detach'd context so the span parents under the request instead of
// orphaning. An untraced context records nothing.
func (b *Bus) PublishCtx(ctx context.Context, e Event) {
	sp := trace.FromContext(ctx).Child("bus.publish")
	sp.SetStr("event.type", string(e.Type))
	defer sp.End()
	if b == nil {
		return
	}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.seqs[e.ExamID]++
	e.Seq = b.seqs[e.ExamID]
	b.global++
	e.GlobalSeq = b.global
	if e.At.IsZero() {
		e.At = b.now()
	}
	// Attach the shared marshal-once cell before any copy is made: the ring
	// entries, every subscriber's queued copy and the log's queued copy all
	// alias it, so the whole fan-out costs one json.Marshal.
	e.enc = &encodedEvent{}
	if b.ringCap > 0 {
		r := b.rings[e.ExamID]
		if r == nil {
			r = newRing(b.ringCap)
			b.rings[e.ExamID] = r
		}
		r.push(e)
		b.allRing.push(e)
	}
	if b.log != nil {
		b.log.enqueue(e)
	}
	for sub := range b.subs {
		if sub.examID == "" || sub.examID == e.ExamID {
			sub.push(e)
		}
	}
	b.mu.Unlock()
	b.mPublished.Inc()
}

// Subscribers reports the number of registered subscriptions (metrics,
// leak tests).
func (b *Bus) Subscribers() int {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.subs)
}

// Seq reports the exam's current (last assigned) sequence number.
func (b *Bus) Seq(examID string) uint64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.seqs[examID]
}

// Head reports the bus-wide (last assigned) global sequence number —
// consumers compare it against their own position to measure lag.
func (b *Bus) Head() uint64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.global
}

// SubscribeOptions selects what a subscription receives.
type SubscribeOptions struct {
	// ExamID restricts the stream to one exam; empty subscribes to every
	// event (the firehose).
	ExamID string
	// Buffer bounds the pending queue (0 means DefaultBuffer). When full,
	// the oldest pending event is dropped and a TypeGap marker is injected.
	Buffer int
	// Replay requests delivery of already-published events before live
	// ones: exam subscriptions replay events with Seq > AfterSeq, firehose
	// subscriptions events with GlobalSeq > AfterSeq. Events older than
	// both the replay ring and the durable log are gone; the subscription
	// starts with a TypeGap marker when the requested offset is no longer
	// reachable.
	Replay   bool
	AfterSeq uint64
}

// Subscribe registers a new subscription. The caller must eventually Close
// it. Returns nil on a nil or closed bus.
func (b *Bus) Subscribe(o SubscribeOptions) *Subscription {
	if b == nil {
		return nil
	}
	if o.Buffer <= 0 {
		o.Buffer = DefaultBuffer
	}
	sub := &Subscription{
		bus:    b,
		examID: o.ExamID,
		max:    o.Buffer,
		out:    make(chan Event),
		notify: make(chan struct{}, 1),
		done:   make(chan struct{}),
	}

	// Log replay happens before registration and without the bus lock (it
	// is file I/O); anything published in between is covered by the replay
	// ring, and the ring merge below dedupes the overlap by sequence.
	var logEvents []Event
	if o.Replay && b.log != nil {
		logEvents = b.log.ReadSince(o.ExamID, o.AfterSeq)
	}

	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil
	}
	if o.Replay {
		sub.seedLocked(b, o, logEvents)
	}
	b.subs[sub] = struct{}{}
	b.mu.Unlock()

	go sub.pump()
	return sub
}

// seedLocked queues the replayable backlog (durable log + replay ring) onto
// a new subscription, prefixed with a gap marker when the requested offset
// has aged out of both. Callers hold b.mu.
func (sub *Subscription) seedLocked(b *Bus, o SubscribeOptions, logEvents []Event) {
	seqOf := func(e Event) uint64 {
		if o.ExamID == "" {
			return e.GlobalSeq
		}
		return e.Seq
	}
	var ringEvents []Event
	if b.ringCap > 0 {
		r := b.allRing
		if o.ExamID != "" {
			r = b.rings[o.ExamID]
		}
		if r != nil {
			for _, e := range r.all() {
				if seqOf(e) > o.AfterSeq {
					ringEvents = append(ringEvents, e)
				}
			}
		}
	}
	// Merge: log events strictly older than the ring's head, then the ring.
	backlog := ringEvents
	if len(logEvents) > 0 {
		cutoff := uint64(1<<63 - 1)
		if len(ringEvents) > 0 {
			cutoff = seqOf(ringEvents[0])
		}
		var merged []Event
		for _, e := range logEvents {
			if seqOf(e) < cutoff {
				merged = append(merged, e)
			}
		}
		backlog = append(merged, ringEvents...)
	}
	// Every hole is announced, never silently skipped: before the oldest
	// recoverable event, at any seam inside the merged backlog (the
	// durable log's flushed tail can trail the ring's oldest entry when
	// the writer is behind), and between the backlog's end and the bus
	// head (ring disabled or empty with log appends still queued). Live
	// events published after this registration follow contiguously.
	prev := o.AfterSeq
	for _, e := range backlog {
		seq := seqOf(e)
		if seq > prev+1 {
			b.mGaps.Inc()
			sub.queue = append(sub.queue, Event{
				Type: TypeGap, ExamID: o.ExamID, Dropped: int(seq - prev - 1),
			})
		}
		prev = seq
		sub.queue = append(sub.queue, e)
	}
	head := b.seqs[o.ExamID]
	if o.ExamID == "" {
		head = b.global
	}
	if head > prev {
		b.mGaps.Inc()
		sub.queue = append(sub.queue, Event{
			Type: TypeGap, ExamID: o.ExamID, Dropped: int(head - prev),
		})
	}
	if len(sub.queue) > 0 {
		sub.wake()
	}
}

// DetachSubscribers closes every subscription without shutting the bus
// down: Publish keeps flowing into the replay rings and the durable log.
// Server drain uses this — SSE connections (which stay in-flight until
// their subscription ends) terminate promptly, while learner requests
// completing during the drain still record their events durably, so a
// post-restart Last-Event-ID resume has no silent hole.
func (b *Bus) DetachSubscribers() {
	if b == nil {
		return
	}
	b.mu.Lock()
	subs := make([]*Subscription, 0, len(b.subs))
	for sub := range b.subs {
		subs = append(subs, sub)
	}
	b.subs = make(map[*Subscription]struct{})
	b.mu.Unlock()
	for _, sub := range subs {
		sub.stop()
	}
}

// Close shuts the bus down: the durable log is flushed and closed, every
// subscription's channel is closed. Publish afterwards is a no-op.
func (b *Bus) Close() {
	if b == nil {
		return
	}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	subs := make([]*Subscription, 0, len(b.subs))
	for sub := range b.subs {
		subs = append(subs, sub)
	}
	b.subs = make(map[*Subscription]struct{})
	b.mu.Unlock()
	for _, sub := range subs {
		sub.stop()
	}
	if b.log != nil {
		_ = b.log.Close()
	}
}

func (b *Bus) unsubscribe(sub *Subscription) {
	b.mu.Lock()
	delete(b.subs, sub)
	b.mu.Unlock()
}

// Subscription is one consumer's bounded view of the stream. Read from
// Events(); Close when done.
type Subscription struct {
	bus    *Bus
	examID string
	out    chan Event

	mu      sync.Mutex
	queue   []Event
	dropped int // dropped since the pump last drained
	max     int
	free    []Event // drained backing array, recycled by the pump's next swap

	notify   chan struct{} // cap 1: queue became non-empty
	done     chan struct{}
	stopOnce sync.Once
}

// Events is the delivery channel. It is closed when the subscription (or
// the bus) is closed. Gap markers (TypeGap) appear in-stream where events
// were dropped.
func (s *Subscription) Events() <-chan Event { return s.out }

// Close tears the subscription down and closes its channel. Idempotent.
func (s *Subscription) Close() {
	if s == nil {
		return
	}
	s.bus.unsubscribe(s)
	s.stop()
}

func (s *Subscription) stop() {
	s.stopOnce.Do(func() { close(s.done) })
}

// push enqueues one event, dropping the oldest pending event when the
// bounded queue is full. Never blocks; called with bus.mu held.
//
//assess:hotpath
func (s *Subscription) push(e Event) {
	s.mu.Lock()
	if len(s.queue) >= s.max {
		// Drop-oldest: the newest state is what a live dashboard wants, and
		// the gap marker tells the consumer history was lost.
		n := len(s.queue) - s.max + 1
		s.queue = append(s.queue[:0], s.queue[n:]...)
		s.dropped += n
		s.bus.mDropped.Add(int64(n))
	}
	s.queue = append(s.queue, e)
	depth := len(s.queue)
	s.mu.Unlock()
	s.bus.mQueueHW.SetMax(int64(depth))
	s.wake()
}

//assess:hotpath
func (s *Subscription) wake() {
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// pump moves events from the bounded queue to the delivery channel. The
// send may block on a slow consumer — that is fine, the queue keeps
// absorbing (and dropping) behind it; the emitter never waits.
func (s *Subscription) pump() {
	defer close(s.out)
	for {
		select {
		case <-s.notify:
		case <-s.done:
			return
		}
		for {
			s.mu.Lock()
			batch, dropped := s.queue, s.dropped
			// Double-buffer: the previous batch's backing array (fully
			// delivered by the time this swap runs) becomes the new queue,
			// so steady-state delivery recycles two arrays, allocating none.
			s.queue, s.dropped = s.free[:0], 0
			s.mu.Unlock()
			s.free = batch
			if dropped > 0 {
				s.bus.mGaps.Inc()
				gap := Event{Type: TypeGap, ExamID: s.examID, Dropped: dropped}
				select {
				case s.out <- gap:
				case <-s.done:
					return
				}
			}
			if len(batch) == 0 {
				break
			}
			for _, e := range batch {
				select {
				case s.out <- e:
				case <-s.done:
					return
				}
			}
		}
	}
}

// ring is a fixed-capacity circular buffer of events.
type ring struct {
	buf   []Event
	start int
	count int
}

func newRing(capacity int) *ring {
	return &ring{buf: make([]Event, capacity)}
}

func (r *ring) push(e Event) {
	if r.count < len(r.buf) {
		r.buf[(r.start+r.count)%len(r.buf)] = e
		r.count++
		return
	}
	r.buf[r.start] = e
	r.start = (r.start + 1) % len(r.buf)
}

// all returns the retained events oldest-first.
func (r *ring) all() []Event {
	out := make([]Event, 0, r.count)
	for i := 0; i < r.count; i++ {
		out = append(out, r.buf[(r.start+i)%len(r.buf)])
	}
	return out
}
