// Package overload is the admission-control layer: an adaptive concurrency
// limiter (Vegas-style gradient on minRTT vs observed RTT, AIMD on
// failure), a CoDel-flavoured admission queue (target-delay dropping with
// adaptive-LIFO switchover under a standing queue), and criticality-tiered
// load shedding (sheddable traffic rejected first, tiers re-admitted with
// hysteresis so admission does not flap).
//
// L3 steers traffic toward low-latency backends, but steering alone cannot
// protect a backend — or the proxy itself — once offered load exceeds
// capacity: queues grow without bound and every request sees the full
// queue, the collapse that retry budgets (figure R1) only partially
// contain. This layer bounds the damage at the front door:
//
//		tier gate → concurrency limiter → admission queue (CoDel) → issue
//
//	  - The limiter tracks the minimum observed RTT as the no-queueing
//	    baseline and estimates the requests it is keeping queued as
//	    q = limit·(1 − minRTT/winRTT), where winRTT is the current window's
//	    own minimum — the best case the path offers right now, so inflation
//	    there is queueing rather than service-time spread. Below alpha it
//	    grows the limit by one per window; above beta it shrinks by one; a
//	    failed response (timeout, 5xx) multiplies the limit by Decrease at
//	    most once per window — additive increase, multiplicative decrease,
//	    like TCP Vegas adapted to concurrency (Netflix's adaptive
//	    concurrency limits).
//	  - Requests over the limit wait in a bounded queue. At dequeue the
//	    sojourn time feeds a CoDel control law: once sojourn has stayed
//	    above Target for a full Interval the queue is "standing" and
//	    dequeues drop at sqrt-spaced intervals until sojourn falls below
//	    Target again. Under a standing queue the dequeue order flips to
//	    LIFO (newest first — Facebook's adaptive LIFO): fresh requests
//	    still meet their deadlines while the backlog, which would time out
//	    anyway, absorbs the drops.
//	  - Every request carries a criticality tier (0 = critical,
//	    1 = default, 2 = sheddable). The drop law decides when to shed;
//	    criticality decides who: a CoDel drop falls on the most sheddable
//	    request still queued (DAGOR-style), and the drop law never
//	    discards the top tier at all — an all-critical standing queue is
//	    bounded by MaxWait and qcap instead. Overload signals
//	    (CoDel drops, queue overflow) also clamp the highest admitted tier
//	    one step at a time; a tier is re-admitted only after queue delay
//	    has stayed below Target/2 for Readmit — hysteresis, so a tier does
//	    not flap in and out at the overload boundary.
//
// Both clocks run one admission core (queue.go): the gate, the in-flight
// count, the ring, the drop law and every count, on a clock-relative now.
// Client (sim) and WallAdmitter (wall) are adapters that pass it a limit —
// one limiter's, or the sum of per-backend ones — and deliver its verdicts:
// a callback or an issued call on the engine, a channel send under the
// admitter's mutex. Request state recycles through free lists and pools,
// and the wall's no-queueing fast path is lock-then-counters only.
package overload

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Metric families the layer exports, so shedding and limit adaptation can
// be plotted next to the data-plane series.
const (
	// MetricAdmittedTotal counts requests admitted (fast path or dequeued),
	// per service.
	MetricAdmittedTotal = "overload_admitted_total"
	// MetricShedTotal counts requests rejected, per service and tier label
	// ("critical", "default", "sheddable").
	MetricShedTotal = "overload_shed_total"
	// MetricCodelDroppedTotal counts queue entries dropped by the CoDel
	// control law at dequeue.
	MetricCodelDroppedTotal = "overload_codel_dropped_total"
	// MetricQueueOverflowTotal counts requests rejected because the
	// admission queue was full.
	MetricQueueOverflowTotal = "overload_queue_overflow_total"
	// MetricLifoFlipsTotal counts switches into LIFO dequeue order.
	MetricLifoFlipsTotal = "overload_lifo_flips_total"
	// MetricReadmitsTotal counts tiers re-admitted after hysteresis.
	MetricReadmitsTotal = "overload_tier_readmits_total"
	// MetricConcurrencyLimit gauges the limiter's current limit.
	MetricConcurrencyLimit = "overload_concurrency_limit"
)

// The three criticality tiers, lowest shed first from the top.
const (
	// TierCritical is never shed by the tier gate (the limiter and queue
	// still apply).
	TierCritical = 0
	// TierDefault is the tier of unmarked requests.
	TierDefault = 1
	// TierSheddable is rejected first under overload.
	TierSheddable = 2
	// NumTiers is the number of criticality tiers.
	NumTiers = 3
)

var tierNames = [NumTiers]string{"critical", "default", "sheddable"}

// TierName returns the label value for a tier ("critical", "default",
// "sheddable").
func TierName(tier int) string {
	if tier < 0 || tier >= NumTiers {
		return "default"
	}
	return tierNames[tier]
}

// ParseTier maps a criticality annotation (the X-L3-Criticality header in
// the wall path, a call option in the sim path) to a tier. Unknown or
// empty values are TierDefault; comparisons allocate nothing.
func ParseTier(s string) int {
	switch s {
	case "critical", "0":
		return TierCritical
	case "sheddable", "2":
		return TierSheddable
	default:
		return TierDefault
	}
}

// LimiterConfig parameterises the adaptive concurrency limiter.
type LimiterConfig struct {
	// Initial is the starting concurrency limit (0 disables the whole
	// layer).
	Initial int
	// Min / Max clamp the adaptive limit (defaults 1 and 4×Initial).
	Min int
	Max int
	// Alpha / Beta are the Vegas thresholds on the estimated queue
	// q = limit·(1 − Tolerance·minRTT/winRTT): grow below Alpha, shrink
	// above Beta (defaults 3 and 6).
	Alpha float64
	Beta  float64
	// Tolerance discounts RTT inflation below Tolerance×minRTT as noise
	// (default 2): heavy-tailed service time moves the window minimum by
	// tens of percent without any queueing, and reacting to that would
	// collapse the limit at healthy baseline. Real congestion — queue
	// waits of multiples of the service time — clears the factor easily.
	Tolerance float64
	// Window is how many responses close one adaptation window
	// (default 16).
	Window int
	// Decrease is the multiplicative factor applied on a failed response,
	// at most once per window (default 0.9).
	Decrease float64
}

// QueueConfig parameterises the CoDel admission queue.
type QueueConfig struct {
	// Target is the acceptable queue sojourn; sojourns above it for a
	// full Interval mark the queue standing (default 5 ms).
	Target time.Duration
	// Interval is the CoDel control interval (default 100 ms).
	Interval time.Duration
	// Capacity bounds the queue; arrivals beyond it are shed immediately
	// (default 128; 0 disables queueing — over-limit arrivals shed).
	Capacity int
	// MaxWait is the hard ceiling on queue sojourn: entries older than it
	// are discarded at dequeue regardless of the drop law's state (default
	// 10×Interval). Under adaptive LIFO the backlog end of the queue can
	// hold entries for the whole overload; this bounds how stale an
	// admitted request can be.
	MaxWait time.Duration
	// DisableLIFO keeps FIFO order even under a standing queue.
	DisableLIFO bool
}

// TierConfig parameterises criticality-tiered shedding.
type TierConfig struct {
	// Enabled turns the tier gate on.
	Enabled bool
	// Readmit is how long queue delay must stay below Target/2 before the
	// next clamped tier is re-admitted (default 1 s).
	Readmit time.Duration
}

// Policy is a service's admission policy. The zero value disables the
// layer entirely.
type Policy struct {
	Limiter LimiterConfig
	Queue   QueueConfig
	Tiers   TierConfig
}

// Enabled reports whether the layer is active.
func (p Policy) Enabled() bool { return p.Limiter.Initial > 0 }

func (p Policy) withDefaults() Policy {
	if p.Limiter.Initial <= 0 {
		return p
	}
	if p.Limiter.Min <= 0 {
		p.Limiter.Min = 1
	}
	if p.Limiter.Max <= 0 {
		p.Limiter.Max = 4 * p.Limiter.Initial
	}
	if p.Limiter.Max < p.Limiter.Min {
		p.Limiter.Max = p.Limiter.Min
	}
	if p.Limiter.Alpha <= 0 {
		p.Limiter.Alpha = 3
	}
	if p.Limiter.Beta <= p.Limiter.Alpha {
		p.Limiter.Beta = 2 * p.Limiter.Alpha
	}
	if p.Limiter.Window <= 0 {
		p.Limiter.Window = 16
	}
	if p.Limiter.Tolerance <= 0 {
		p.Limiter.Tolerance = 2
	}
	if p.Limiter.Decrease <= 0 || p.Limiter.Decrease >= 1 {
		p.Limiter.Decrease = 0.9
	}
	if p.Queue.Capacity > 0 || p.Queue.Target > 0 || p.Tiers.Enabled {
		if p.Queue.Capacity <= 0 {
			p.Queue.Capacity = 128
		}
		if p.Queue.Target <= 0 {
			p.Queue.Target = 5 * time.Millisecond
		}
		if p.Queue.Interval <= 0 {
			p.Queue.Interval = 100 * time.Millisecond
		}
		if p.Queue.MaxWait <= 0 {
			p.Queue.MaxWait = 10 * p.Queue.Interval
		}
	}
	if p.Tiers.Enabled {
		if p.Tiers.Readmit <= 0 {
			p.Tiers.Readmit = time.Second
		}
	}
	return p
}

// String renders the policy in the -overload flag grammar ParsePolicy
// accepts.
func (p Policy) String() string {
	if !p.Enabled() {
		return "off"
	}
	parts := []string{"limit=" + strconv.Itoa(p.Limiter.Initial)}
	if p.Limiter.Min > 0 {
		parts = append(parts, "min="+strconv.Itoa(p.Limiter.Min))
	}
	if p.Limiter.Max > 0 {
		parts = append(parts, "max="+strconv.Itoa(p.Limiter.Max))
	}
	if p.Queue.Target > 0 {
		parts = append(parts, "target="+p.Queue.Target.String())
	}
	if p.Queue.Interval > 0 {
		parts = append(parts, "interval="+p.Queue.Interval.String())
	}
	if p.Queue.Capacity > 0 {
		parts = append(parts, "qcap="+strconv.Itoa(p.Queue.Capacity))
	}
	if p.Queue.MaxWait > 0 {
		parts = append(parts, "maxwait="+p.Queue.MaxWait.String())
	}
	if p.Queue.DisableLIFO {
		parts = append(parts, "lifo=off")
	}
	if p.Tiers.Enabled {
		parts = append(parts, "tiers=on")
		if p.Tiers.Readmit > 0 {
			parts = append(parts, "readmit="+p.Tiers.Readmit.String())
		}
	}
	return strings.Join(parts, ",")
}

// ParsePolicy parses the textual policy format of the l3bench -overload
// flag and the l3serve `overload` config key: comma-separated key=value
// pairs ("off" or empty disables).
//
//	limit=16       initial concurrency limit (enables the layer)
//	min=1 max=64   clamp on the adaptive limit
//	alpha=3 beta=6 Vegas grow/shrink thresholds on the estimated queue
//	tolerance=2    RTT inflation below tolerance×minRTT is noise, not queueing
//	window=16      responses per adaptation window   decrease=0.9  AIMD factor
//	target=5ms     CoDel target sojourn   interval=100ms  CoDel interval
//	qcap=128       admission-queue capacity   maxwait=1s  hard sojourn ceiling
//	lifo=off       keep FIFO under a standing queue (default adaptive LIFO)
//	tiers=on       criticality-tiered shedding
//	readmit=1s     healthy time before a shed tier re-admits
func ParsePolicy(s string) (Policy, error) {
	var p Policy
	if strings.TrimSpace(s) == "off" {
		return p, nil
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return p, fmt.Errorf("overload: %q is not key=value", part)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		var err error
		switch key {
		case "limit":
			p.Limiter.Initial, err = strconv.Atoi(val)
		case "min":
			p.Limiter.Min, err = strconv.Atoi(val)
		case "max":
			p.Limiter.Max, err = strconv.Atoi(val)
		case "alpha":
			p.Limiter.Alpha, err = parseFloat(val)
		case "beta":
			p.Limiter.Beta, err = parseFloat(val)
		case "tolerance":
			p.Limiter.Tolerance, err = parseFloat(val)
		case "window":
			p.Limiter.Window, err = strconv.Atoi(val)
		case "decrease":
			p.Limiter.Decrease, err = parseFloat(val)
		case "target":
			p.Queue.Target, err = time.ParseDuration(val)
		case "interval":
			p.Queue.Interval, err = time.ParseDuration(val)
		case "qcap":
			p.Queue.Capacity, err = strconv.Atoi(val)
		case "maxwait":
			p.Queue.MaxWait, err = time.ParseDuration(val)
		case "lifo":
			var on bool
			on, err = parseOnOff(val)
			p.Queue.DisableLIFO = !on
		case "tiers":
			p.Tiers.Enabled, err = parseOnOff(val)
		case "readmit":
			p.Tiers.Readmit, err = time.ParseDuration(val)
			p.Tiers.Enabled = p.Tiers.Enabled || err == nil
		default:
			return p, fmt.Errorf("overload: unknown policy key %q", key)
		}
		if err != nil {
			return p, fmt.Errorf("overload: bad %s value %q: %w", key, val, err)
		}
	}
	return p, nil
}

// parseFloat is strconv.ParseFloat for a policy value, which no key takes
// to be NaN or infinite.
func parseFloat(val string) (float64, error) {
	f, err := strconv.ParseFloat(val, 64)
	if err == nil && (math.IsNaN(f) || math.IsInf(f, 0)) {
		err = errors.New("not a finite number")
	}
	return f, err
}

func parseOnOff(val string) (bool, error) {
	switch val {
	case "on", "true", "1":
		return true, nil
	case "off", "false", "0":
		return false, nil
	}
	return false, fmt.Errorf("want on or off")
}

// minRTTWindows is how many adaptation windows the limiter's minRTT
// baseline spans; old minima age out so a routing change (or a healed
// fault) cannot pin an unreachably low baseline forever.
const minRTTWindows = 8

// Limiter is the adaptive concurrency limiter. It is a plain
// single-threaded value — the sim client runs it on an engine timeline and
// the wall admitter guards it with its own mutex. It holds the limit only;
// the admission core counts the slots held against it.
type Limiter struct {
	cfg   LimiterConfig
	limit float64

	// Current adaptation window.
	winMin    time.Duration
	winOK     int
	winN      int
	decreased bool

	// Ring of recent per-window RTT minima; their min is the baseline.
	minRing [minRTTWindows]time.Duration
	ringN   int
	ringI   int
}

// NewLimiter returns a limiter for an already-defaulted config.
func NewLimiter(cfg LimiterConfig) Limiter {
	return Limiter{cfg: cfg, limit: float64(cfg.Initial)}
}

// Limit is the current concurrency limit.
func (l *Limiter) Limit() int { return int(l.limit) }

// Observe feeds one response outcome into the adaptation loop. A failure
// (timeout, 5xx, shed downstream) is the AIMD decrease signal, applied at
// most once per window; successes close windows that grow or shrink the
// limit by one on the Vegas queue estimate.
func (l *Limiter) Observe(rtt time.Duration, success bool) {
	if !success {
		if !l.decreased {
			l.decreased = true
			l.limit *= l.cfg.Decrease
			if l.limit < float64(l.cfg.Min) {
				l.limit = float64(l.cfg.Min)
			}
		}
	} else {
		if l.winOK == 0 || rtt < l.winMin {
			l.winMin = rtt
		}
		l.winOK++
	}
	if l.winN++; l.winN < l.cfg.Window {
		return
	}
	l.closeWindow()
}

func (l *Limiter) closeWindow() {
	if l.winOK > 0 {
		l.minRing[l.ringI] = l.winMin
		l.ringI = (l.ringI + 1) % minRTTWindows
		if l.ringN < minRTTWindows {
			l.ringN++
		}
		if !l.decreased {
			minRTT := l.minRing[0]
			for i := 1; i < l.ringN; i++ {
				if l.minRing[i] < minRTT {
					minRTT = l.minRing[i]
				}
			}
			// Compare baselines: the window's own minimum is the best case
			// the path currently offers, so inflation there is queueing,
			// not service-time spread — and the tolerance factor forgives
			// the sampling noise a heavy-tailed service distribution puts
			// on a 16-sample minimum. Without both, dispersion alone reads
			// as a standing queue and the limit collapses at healthy
			// baseline.
			q := 0.0
			if l.winMin > 0 {
				q = l.limit * (1 - l.cfg.Tolerance*float64(minRTT)/float64(l.winMin))
				if q < 0 {
					q = 0
				}
			}
			switch {
			case q < l.cfg.Alpha:
				if l.limit += 1; l.limit > float64(l.cfg.Max) {
					l.limit = float64(l.cfg.Max)
				}
			case q > l.cfg.Beta:
				if l.limit -= 1; l.limit < float64(l.cfg.Min) {
					l.limit = float64(l.cfg.Min)
				}
			}
		}
	}
	l.winMin, l.winOK, l.winN = 0, 0, 0
	l.decreased = false
}

// CoDel is the controlled-delay drop law, evaluated on each dequeue with
// the entry's queue sojourn. Like Limiter it is a plain single-threaded
// value.
type CoDel struct {
	cfg QueueConfig
	// firstAbove is when the current above-target excursion will have
	// lasted a full interval (0 = sojourn currently below target).
	firstAbove time.Duration
	dropping   bool
	dropNext   time.Duration
	dropCount  int
}

// NewCoDel returns a drop law for an already-defaulted config.
func NewCoDel(cfg QueueConfig) CoDel { return CoDel{cfg: cfg} }

// Dropping reports whether the queue is standing (above target for a full
// interval) — the adaptive-LIFO and tier-clamp signal.
func (c *CoDel) Dropping() bool { return c.dropping }

// OnDequeue reports whether the entry dequeued at now after sojourn in the
// queue should be dropped.
func (c *CoDel) OnDequeue(now, sojourn time.Duration) bool {
	if sojourn < c.cfg.Target {
		c.firstAbove = 0
		c.dropping = false
		return false
	}
	if c.firstAbove == 0 {
		c.firstAbove = now + c.cfg.Interval
		return false
	}
	if now < c.firstAbove {
		return false
	}
	if !c.dropping {
		c.dropping = true
		// Re-entering drop state shortly after leaving it resumes near the
		// previous drop rate instead of relearning it from scratch.
		if c.dropCount > 2 && now-c.dropNext < 8*c.cfg.Interval {
			c.dropCount -= 2
		} else {
			c.dropCount = 0
		}
		c.dropNext = now
	}
	if now >= c.dropNext {
		c.dropCount++
		c.dropNext = now + time.Duration(float64(c.cfg.Interval)/math.Sqrt(float64(c.dropCount)))
		return true
	}
	return false
}

// TierGate clamps and re-admits criticality tiers. Overload signals clamp
// the highest admitted tier one step at a time, at least one queue Interval
// apart, so one burst of drops walks down one tier, not all of them;
// re-admission needs queue delay below Target/2 sustained for Readmit.
type TierGate struct {
	cfg      TierConfig
	target   time.Duration
	hold     time.Duration // the queue's Interval: the spacing of clamp steps
	admitMax int
	// goodSince is when queue delay last became healthy (0 = unhealthy).
	goodSince time.Duration
	lastClamp time.Duration
}

// NewTierGate returns a gate for an already-defaulted policy's tier and
// queue configs; all tiers start admitted.
func NewTierGate(p Policy) TierGate {
	return TierGate{cfg: p.Tiers, target: p.Queue.Target, hold: p.Queue.Interval, admitMax: NumTiers - 1}
}

// Admit reports whether the tier is currently admitted.
func (g *TierGate) Admit(tier int) bool {
	return !g.cfg.Enabled || tier <= g.admitMax
}

// AdmitMax is the highest currently admitted tier.
func (g *TierGate) AdmitMax() int { return g.admitMax }

// Overloaded is the clamp signal (a CoDel drop or queue overflow): shed
// one more tier, at most once per queue Interval.
func (g *TierGate) Overloaded(now time.Duration) {
	if !g.cfg.Enabled {
		return
	}
	g.goodSince = 0
	if g.admitMax > 0 && (g.lastClamp == 0 || now-g.lastClamp >= g.hold) {
		g.admitMax--
		g.lastClamp = now
	}
}

// Signal feeds one queue-delay observation (0 for fast-path admissions)
// and reports whether sustained health just re-admitted a tier.
func (g *TierGate) Signal(now, sojourn time.Duration) bool {
	if !g.cfg.Enabled {
		return false
	}
	if sojourn >= g.target/2 {
		g.goodSince = 0
		return false
	}
	if g.goodSince == 0 {
		g.goodSince = now
		return false
	}
	if g.admitMax < NumTiers-1 && now-g.goodSince >= g.cfg.Readmit {
		g.admitMax++
		// Restart the clock: the next tier needs its own healthy period.
		g.goodSince = now
		return true
	}
	return false
}
