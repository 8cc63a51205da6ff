// Package chaos is a seeded, declarative fault-injection engine for the
// discrete-event simulation: a Schedule of timed fault events (inject at At,
// heal at At+Duration) applied through small injector interfaces the
// substrates expose — WAN links (internal/wan), backend deployments
// (internal/backend), the metrics scraper (internal/core) and the
// leader-elected controller instances (internal/core + internal/cluster).
//
// The paper's failure scenarios (§5.1) model failures statistically, as
// success-rate dips baked into the input traces. Chaos schedules instead
// inject structural faults — the link actually blackholes, the pod actually
// dies, the leader actually stops renewing its lease — so the repository can
// measure recovery: how long each balancing strategy needs to steer away
// from (and back to) a failed resource, and what the failure costs in
// SLO-violation seconds. Everything is scheduled on the virtual clock, so a
// chaos run is exactly as deterministic as the simulation it perturbs.
package chaos

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Kind enumerates the fault types the engine can inject.
type Kind int

const (
	// Partition blackholes the From↔To links in both directions (To may be
	// "*" for "From against every other cluster"): requests and probes in
	// transit are lost and clients time out.
	Partition Kind = iota + 1
	// DelaySpike adds Extra one-way delay to the directed From→To link —
	// asymmetric by construction; schedule the reverse link for symmetry.
	DelaySpike
	// LinkFlap makes the Extra delay of the directed From→To link come and
	// go every Flap interval — a routing path bouncing between a short and
	// a long route.
	LinkFlap
	// BackendCrash kills the named Backend; healing restarts it with
	// SlowStart worth of cold-start capacity ramp.
	BackendCrash
	// Saturate shrinks the named Backend's worker pool to Factor of its
	// capacity, so offered load drives it into queueing.
	Saturate
	// ScrapeDrop makes the control plane's metric scrapes fail, freezing
	// the TSDB at stale values.
	ScrapeDrop
	// LeaderKill crashes the Target controller instance without releasing
	// its leadership lease; healing revives the instance.
	LeaderKill
	// CounterReset zeroes the cumulative metric series of the named Backend
	// at the event time, as a pod restart would — instantaneous, no heal.
	CounterReset
	// Garbage corrupts scraped sample values (NaN and/or negated, per Mode)
	// for the named Backend's series, or every series when Backend is empty.
	Garbage
	// ClockSkew back-dates alternating scrape passes by Skew, jittering (or,
	// beyond the scrape interval, reordering) ingestion timestamps.
	ClockSkew
	// SlowScrape stretches the effective scrape interval SlowFactor-fold by
	// letting only every n-th scheduled scrape run.
	SlowScrape

	// Wall-clock fault kinds: real-socket misbehaviour injected into the
	// serving mode's stub fleet (chaos.WallRunner + serve.ChaosStub). They
	// share this grammar so a schedule written for `l3serve -chaostest`
	// reads exactly like one written for `l3bench -chaos`; the simulator's
	// Injector rejects them loudly — a sim backend has no TCP connection to
	// reset.

	// Stall makes the named Backend accept connections but never answer
	// until healed — the slow-loris server, the wedged runtime, the full
	// accept queue. Clients hang until their deadline fires.
	Stall
	// ConnReset makes the named Backend reset (TCP RST) every connection at
	// the first request — a crashed process with a live listener socket.
	ConnReset
	// SlowLoris makes the named Backend answer headers promptly, then drip
	// the response body one byte per Extra interval until healed.
	SlowLoris
	// ErrorBurst makes the named Backend answer 500 to Factor of requests.
	ErrorBurst
	// LatencyRamp linearly ramps the named Backend's added latency from 0
	// to Extra across the event window, then drops it back at heal — the
	// degrading-disk / saturating-neighbour shape that breaks controllers
	// tuned only for step faults.
	LatencyRamp
	// BackendFlap alternates the named Backend between resetting
	// connections and serving normally every Flap interval — a
	// crash-looping process behind a stable address.
	BackendFlap
)

// String returns the schedule-format keyword of the kind.
func (k Kind) String() string {
	switch k {
	case Partition:
		return "partition"
	case DelaySpike:
		return "delay"
	case LinkFlap:
		return "flap"
	case BackendCrash:
		return "crash"
	case Saturate:
		return "saturate"
	case ScrapeDrop:
		return "scrapedrop"
	case LeaderKill:
		return "leaderkill"
	case CounterReset:
		return "counterreset"
	case Garbage:
		return "garbage"
	case ClockSkew:
		return "clockskew"
	case SlowScrape:
		return "slowscrape"
	case Stall:
		return "stall"
	case ConnReset:
		return "reset"
	case SlowLoris:
		return "slowloris"
	case ErrorBurst:
		return "errorburst"
	case LatencyRamp:
		return "ramp"
	case BackendFlap:
		return "bflap"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Event is one timed fault: injected at At, healed at At+Duration (a zero
// Duration never heals). Times are relative to the start of measurement;
// harnesses that warm up first shift them.
type Event struct {
	Kind     Kind
	At       time.Duration
	Duration time.Duration

	// From/To name the directed WAN link (Partition treats the pair as
	// bidirectional; To "*" expands to every other cluster).
	From, To string
	// Backend names the deployment for BackendCrash/Saturate.
	Backend string
	// Target names the controller instance for LeaderKill.
	Target string
	// Extra is the added one-way delay for DelaySpike/LinkFlap.
	Extra time.Duration
	// Flap is the on/off period for LinkFlap.
	Flap time.Duration
	// Factor is the capacity fraction kept under Saturate (0 < Factor < 1).
	Factor float64
	// SlowStart is the capacity ramp after a BackendCrash heals.
	SlowStart time.Duration
	// Mode selects Garbage corruption: "nan", "negative" or "mixed"
	// (alternating; the default when empty).
	Mode string
	// Skew is the back-dating applied by ClockSkew.
	Skew time.Duration
	// SlowFactor is SlowScrape's interval multiplier (≥ 2).
	SlowFactor int
}

// String renders the event in the schedule format ParseSchedule accepts.
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s@%s", e.Kind, e.At)
	if e.Duration > 0 {
		fmt.Fprintf(&b, "+%s", e.Duration)
	}
	switch e.Kind {
	case Partition:
		fmt.Fprintf(&b, ":%s/%s", e.From, e.To)
	case DelaySpike:
		fmt.Fprintf(&b, ":%s/%s/%s", e.From, e.To, e.Extra)
	case LinkFlap:
		fmt.Fprintf(&b, ":%s/%s/%s/%s", e.From, e.To, e.Extra, e.Flap)
	case BackendCrash:
		fmt.Fprintf(&b, ":%s", e.Backend)
		if e.SlowStart > 0 {
			fmt.Fprintf(&b, "/%s", e.SlowStart)
		}
	case Saturate:
		fmt.Fprintf(&b, ":%s/%g", e.Backend, e.Factor)
	case LeaderKill:
		if e.Target != "" {
			fmt.Fprintf(&b, ":%s", e.Target)
		}
	case CounterReset:
		fmt.Fprintf(&b, ":%s", e.Backend)
	case Garbage:
		switch {
		case e.Backend != "":
			mode := e.Mode
			if mode == "" {
				mode = "mixed"
			}
			fmt.Fprintf(&b, ":%s/%s", mode, e.Backend)
		case e.Mode != "":
			fmt.Fprintf(&b, ":%s", e.Mode)
		}
	case ClockSkew:
		fmt.Fprintf(&b, ":%s", e.Skew)
	case SlowScrape:
		fmt.Fprintf(&b, ":%d", e.SlowFactor)
	case Stall, ConnReset:
		fmt.Fprintf(&b, ":%s", e.Backend)
	case SlowLoris, LatencyRamp:
		fmt.Fprintf(&b, ":%s/%s", e.Backend, e.Extra)
	case ErrorBurst:
		fmt.Fprintf(&b, ":%s/%g", e.Backend, e.Factor)
	case BackendFlap:
		fmt.Fprintf(&b, ":%s/%s", e.Backend, e.Flap)
	}
	return b.String()
}

// Validate checks the event's structural invariants.
func (e Event) Validate() error {
	if e.At < 0 {
		return fmt.Errorf("chaos: %s event at negative time %v", e.Kind, e.At)
	}
	if e.Duration < 0 {
		return fmt.Errorf("chaos: %s event with negative duration %v", e.Kind, e.Duration)
	}
	switch e.Kind {
	case Partition:
		if e.From == "" || e.To == "" {
			return fmt.Errorf("chaos: partition needs both link endpoints")
		}
	case DelaySpike:
		if e.From == "" || e.To == "" || e.Extra <= 0 {
			return fmt.Errorf("chaos: delay spike needs link endpoints and a positive extra delay")
		}
	case LinkFlap:
		if e.From == "" || e.To == "" || e.Extra <= 0 || e.Flap <= 0 {
			return fmt.Errorf("chaos: link flap needs link endpoints, extra delay and a period")
		}
	case BackendCrash:
		if e.Backend == "" {
			return fmt.Errorf("chaos: backend crash needs a backend name")
		}
	case Saturate:
		// Written as a positive range check so NaN (every comparison false)
		// cannot slip through.
		if e.Backend == "" || !(e.Factor > 0 && e.Factor < 1) {
			return fmt.Errorf("chaos: saturate needs a backend and a factor in (0, 1)")
		}
		if e.Duration == 0 {
			return fmt.Errorf("chaos: saturate needs a heal time (capacity must come back)")
		}
	case ScrapeDrop:
		// No operands.
	case LeaderKill:
		// Target may be empty: the engine then kills the current leader.
	case CounterReset:
		if e.Backend == "" {
			return fmt.Errorf("chaos: counterreset needs a backend name")
		}
		if e.Duration != 0 {
			return fmt.Errorf("chaos: counterreset is instantaneous (no duration)")
		}
	case Garbage:
		switch e.Mode {
		case "", "nan", "negative", "mixed":
		default:
			return fmt.Errorf("chaos: unknown garbage mode %q", e.Mode)
		}
		if e.Duration == 0 {
			return fmt.Errorf("chaos: garbage needs a heal time (corruption must stop)")
		}
	case ClockSkew:
		if e.Skew <= 0 {
			return fmt.Errorf("chaos: clockskew needs a positive skew")
		}
		if e.Duration == 0 {
			return fmt.Errorf("chaos: clockskew needs a heal time")
		}
	case SlowScrape:
		if e.SlowFactor < 2 {
			return fmt.Errorf("chaos: slowscrape needs a factor of at least 2")
		}
		if e.Duration == 0 {
			return fmt.Errorf("chaos: slowscrape needs a heal time")
		}
	case Stall, ConnReset:
		if e.Backend == "" {
			return fmt.Errorf("chaos: %s needs a backend name", e.Kind)
		}
	case SlowLoris:
		if e.Backend == "" || e.Extra <= 0 {
			return fmt.Errorf("chaos: slowloris needs a backend and a positive drip interval")
		}
	case ErrorBurst:
		// Positive range check so NaN cannot slip through (as Saturate).
		if e.Backend == "" || !(e.Factor > 0 && e.Factor <= 1) {
			return fmt.Errorf("chaos: errorburst needs a backend and an error fraction in (0, 1]")
		}
		if e.Duration == 0 {
			return fmt.Errorf("chaos: errorburst needs a heal time (errors must stop)")
		}
	case LatencyRamp:
		if e.Backend == "" || e.Extra <= 0 {
			return fmt.Errorf("chaos: ramp needs a backend and a positive target latency")
		}
		if e.Duration == 0 {
			return fmt.Errorf("chaos: ramp needs a duration (the ramp's length is the window)")
		}
	case BackendFlap:
		if e.Backend == "" || e.Flap <= 0 {
			return fmt.Errorf("chaos: bflap needs a backend and a flap period")
		}
		if e.Duration == 0 {
			return fmt.Errorf("chaos: bflap needs a heal time (flapping must stop)")
		}
		if e.Flap >= e.Duration {
			return fmt.Errorf("chaos: bflap period %v must be shorter than the window %v", e.Flap, e.Duration)
		}
	default:
		return fmt.Errorf("chaos: unknown event kind %d", int(e.Kind))
	}
	return nil
}

// Schedule is an ordered list of fault events.
type Schedule struct {
	Events []Event
}

// Validate checks every event.
func (s *Schedule) Validate() error {
	if len(s.Events) == 0 {
		return fmt.Errorf("chaos: empty schedule")
	}
	for _, e := range s.Events {
		if err := e.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Start returns the earliest injection time of the schedule.
func (s *Schedule) Start() time.Duration {
	first := time.Duration(-1)
	for _, e := range s.Events {
		if first < 0 || e.At < first {
			first = e.At
		}
	}
	if first < 0 {
		first = 0
	}
	return first
}

// End returns the latest heal time of the schedule; ok is false when some
// event never heals.
func (s *Schedule) End() (last time.Duration, ok bool) {
	ok = true
	for _, e := range s.Events {
		if e.Duration == 0 {
			ok = false
			continue
		}
		if t := e.At + e.Duration; t > last {
			last = t
		}
	}
	return last, ok
}

// String renders the schedule in the format ParseSchedule accepts, events
// sorted by injection time.
func (s *Schedule) String() string {
	evs := make([]Event, len(s.Events))
	copy(evs, s.Events)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
	parts := make([]string, len(evs))
	for i, e := range evs {
		parts[i] = e.String()
	}
	return strings.Join(parts, "; ")
}

// ParseSchedule parses the textual schedule format used by the l3bench
// -chaos flag: semicolon-separated events, each
//
//	kind@at[+duration][:operands]
//
// with durations in Go syntax (90s, 2m30s) and slash-separated operands:
//
//	partition@2m+1m:cluster-1/cluster-2     blackhole the pair both ways
//	partition@2m+1m:cluster-2/*             cut cluster-2 off entirely
//	delay@2m+1m:cluster-1/cluster-3/40ms    one-way delay spike
//	flap@2m+1m:cluster-1/cluster-3/40ms/10s delay comes and goes every 10 s
//	crash@3m+30s:api-cluster-2/15s          crash; restart ramps over 15 s
//	saturate@2m+1m:api-cluster-3/0.25       keep 25 % of worker capacity
//	scrapedrop@2m+30s                       control plane loses scrapes
//	leaderkill@2m                           kill the leader (never revived)
//	leaderkill@2m+1m:l3-0                   kill instance l3-0, revive at 3m
//	counterreset@2m:api-cluster-2           pod restart zeroes its counters
//	garbage@2m+30s                          corrupt every scrape (mixed mode)
//	garbage@2m+30s:nan                      NaN-poison every scraped value
//	garbage@2m+30s:negative/api-cluster-1   negate one backend's samples
//	clockskew@2m+1m:6s                      back-date alternating scrapes 6 s
//	slowscrape@2m+1m:3                      scrape every 15 s instead of 5 s
//
// Wall-clock fault kinds (injected by WallRunner into the serving mode's
// chaos stubs; the simulator rejects them):
//
//	stall@5s+4s:api-a                       accept connections, never answer
//	reset@5s+4s:api-a                       TCP-reset every connection
//	slowloris@5s+4s:api-a/100ms             drip body bytes every 100 ms
//	errorburst@5s+4s:api-a/0.8              80 % of requests answer 500
//	ramp@5s+6s:api-a/300ms                  latency ramps 0→300 ms over 6 s
//	bflap@5s+8s:api-a/1s                    resets come and go every 1 s
func ParseSchedule(s string) (*Schedule, error) {
	sched := &Schedule{}
	for _, part := range strings.Split(s, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		ev, err := parseEvent(part)
		if err != nil {
			return nil, err
		}
		sched.Events = append(sched.Events, ev)
	}
	if err := sched.Validate(); err != nil {
		return nil, err
	}
	return sched, nil
}

func parseEvent(s string) (Event, error) {
	var ev Event
	head, operands, hasOps := strings.Cut(s, ":")
	kindName, when, ok := strings.Cut(head, "@")
	if !ok {
		return ev, fmt.Errorf("chaos: event %q lacks an @time", s)
	}
	switch strings.TrimSpace(kindName) {
	case "partition":
		ev.Kind = Partition
	case "delay":
		ev.Kind = DelaySpike
	case "flap":
		ev.Kind = LinkFlap
	case "crash":
		ev.Kind = BackendCrash
	case "saturate":
		ev.Kind = Saturate
	case "scrapedrop":
		ev.Kind = ScrapeDrop
	case "leaderkill":
		ev.Kind = LeaderKill
	case "counterreset":
		ev.Kind = CounterReset
	case "garbage":
		ev.Kind = Garbage
	case "clockskew":
		ev.Kind = ClockSkew
	case "slowscrape":
		ev.Kind = SlowScrape
	case "stall":
		ev.Kind = Stall
	case "reset":
		ev.Kind = ConnReset
	case "slowloris":
		ev.Kind = SlowLoris
	case "errorburst":
		ev.Kind = ErrorBurst
	case "ramp":
		ev.Kind = LatencyRamp
	case "bflap":
		ev.Kind = BackendFlap
	default:
		return ev, fmt.Errorf("chaos: unknown event kind %q", kindName)
	}

	atStr, durStr, hasDur := strings.Cut(when, "+")
	at, err := time.ParseDuration(strings.TrimSpace(atStr))
	if err != nil {
		return ev, fmt.Errorf("chaos: event %q: bad time: %w", s, err)
	}
	ev.At = at
	if hasDur {
		d, err := time.ParseDuration(strings.TrimSpace(durStr))
		if err != nil {
			return ev, fmt.Errorf("chaos: event %q: bad duration: %w", s, err)
		}
		ev.Duration = d
	}

	var fields []string
	if hasOps {
		for _, f := range strings.Split(operands, "/") {
			fields = append(fields, strings.TrimSpace(f))
		}
	}
	if err := ev.parseOperands(fields); err != nil {
		return ev, fmt.Errorf("chaos: event %q: %w", s, err)
	}
	return ev, ev.Validate()
}

func (e *Event) parseOperands(fields []string) error {
	need := func(n int) error {
		if len(fields) != n {
			return fmt.Errorf("%s takes %d operand(s), got %d", e.Kind, n, len(fields))
		}
		return nil
	}
	switch e.Kind {
	case Partition:
		if err := need(2); err != nil {
			return err
		}
		e.From, e.To = fields[0], fields[1]
	case DelaySpike:
		if err := need(3); err != nil {
			return err
		}
		e.From, e.To = fields[0], fields[1]
		d, err := time.ParseDuration(fields[2])
		if err != nil {
			return err
		}
		e.Extra = d
	case LinkFlap:
		if err := need(4); err != nil {
			return err
		}
		e.From, e.To = fields[0], fields[1]
		d, err := time.ParseDuration(fields[2])
		if err != nil {
			return err
		}
		e.Extra = d
		p, err := time.ParseDuration(fields[3])
		if err != nil {
			return err
		}
		e.Flap = p
	case BackendCrash:
		if len(fields) != 1 && len(fields) != 2 {
			return fmt.Errorf("crash takes a backend and an optional slow-start, got %d operand(s)", len(fields))
		}
		e.Backend = fields[0]
		if len(fields) == 2 {
			d, err := time.ParseDuration(fields[1])
			if err != nil {
				return err
			}
			e.SlowStart = d
		}
	case Saturate:
		if err := need(2); err != nil {
			return err
		}
		e.Backend = fields[0]
		if _, err := fmt.Sscanf(fields[1], "%g", &e.Factor); err != nil {
			return fmt.Errorf("bad saturate factor %q: %w", fields[1], err)
		}
	case ScrapeDrop:
		return need(0)
	case LeaderKill:
		if len(fields) > 1 {
			return fmt.Errorf("leaderkill takes at most one target, got %d operands", len(fields))
		}
		if len(fields) == 1 {
			e.Target = fields[0]
		}
	case CounterReset:
		if err := need(1); err != nil {
			return err
		}
		e.Backend = fields[0]
	case Garbage:
		if len(fields) > 2 {
			return fmt.Errorf("garbage takes a mode and an optional backend, got %d operands", len(fields))
		}
		if len(fields) >= 1 {
			e.Mode = fields[0]
		}
		if len(fields) == 2 {
			e.Backend = fields[1]
		}
	case ClockSkew:
		if err := need(1); err != nil {
			return err
		}
		d, err := time.ParseDuration(fields[0])
		if err != nil {
			return err
		}
		e.Skew = d
	case SlowScrape:
		if err := need(1); err != nil {
			return err
		}
		if _, err := fmt.Sscanf(fields[0], "%d", &e.SlowFactor); err != nil {
			return fmt.Errorf("bad slowscrape factor %q: %w", fields[0], err)
		}
	case Stall, ConnReset:
		if err := need(1); err != nil {
			return err
		}
		e.Backend = fields[0]
	case SlowLoris, LatencyRamp:
		if err := need(2); err != nil {
			return err
		}
		e.Backend = fields[0]
		d, err := time.ParseDuration(fields[1])
		if err != nil {
			return err
		}
		e.Extra = d
	case ErrorBurst:
		if err := need(2); err != nil {
			return err
		}
		e.Backend = fields[0]
		if _, err := fmt.Sscanf(fields[1], "%g", &e.Factor); err != nil {
			return fmt.Errorf("bad errorburst fraction %q: %w", fields[1], err)
		}
	case BackendFlap:
		if err := need(2); err != nil {
			return err
		}
		e.Backend = fields[0]
		d, err := time.ParseDuration(fields[1])
		if err != nil {
			return err
		}
		e.Flap = d
	}
	return nil
}
