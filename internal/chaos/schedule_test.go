package chaos

import (
	"strings"
	"testing"
	"time"
)

func TestParseScheduleRoundTrip(t *testing.T) {
	in := "partition@2m+1m:cluster-1/cluster-2; delay@2m+1m:cluster-1/cluster-3/40ms; " +
		"flap@2m+1m:cluster-1/cluster-3/40ms/10s; crash@3m+30s:api-cluster-2/15s; " +
		"saturate@2m+1m:api-cluster-3/0.25; scrapedrop@2m+30s; leaderkill@2m+1m:l3-0"
	sched, err := ParseSchedule(in)
	if err != nil {
		t.Fatalf("ParseSchedule: %v", err)
	}
	if len(sched.Events) != 7 {
		t.Fatalf("got %d events, want 7", len(sched.Events))
	}
	// String must render back to something ParseSchedule accepts and that
	// parses to the same schedule.
	again, err := ParseSchedule(sched.String())
	if err != nil {
		t.Fatalf("re-parse %q: %v", sched.String(), err)
	}
	if got, want := again.String(), sched.String(); got != want {
		t.Fatalf("round trip drifted:\n got %s\nwant %s", got, want)
	}
}

func TestParseScheduleWallKindsRoundTrip(t *testing.T) {
	in := "stall@5s+4s:api-a; reset@10s+2s:api-b; slowloris@3s+6s:api-a/50ms; " +
		"errorburst@8s+3s:api-b/0.8; ramp@2s+10s:api-a/300ms; bflap@4s+8s:api-b/2s"
	sched, err := ParseSchedule(in)
	if err != nil {
		t.Fatalf("ParseSchedule: %v", err)
	}
	if len(sched.Events) != 6 {
		t.Fatalf("got %d events, want 6", len(sched.Events))
	}
	again, err := ParseSchedule(sched.String())
	if err != nil {
		t.Fatalf("re-parse %q: %v", sched.String(), err)
	}
	if got, want := again.String(), sched.String(); got != want {
		t.Fatalf("round trip drifted:\n got %s\nwant %s", got, want)
	}
	ev := sched.Events[4]
	if ev.Kind != LatencyRamp || ev.Backend != "api-a" || ev.Extra != 300*time.Millisecond {
		t.Fatalf("bad ramp event: %+v", ev)
	}
	for _, s := range []string{
		"stall@5s",                // stall needs a backend
		"slowloris@3s+6s:api-a",   // slowloris needs a drip interval
		"errorburst@8s+3s:a/1.5",  // rate out of range
		"errorburst@8s:a/0.5",     // errorburst must heal
		"ramp@2s:api-a/300ms",     // ramp needs a window
		"bflap@4s+2s:api-b/5s",    // flap period longer than window
		"reset@10s+2s:api-b/oops", // reset takes one operand
	} {
		if _, err := ParseSchedule(s); err == nil {
			t.Errorf("ParseSchedule(%q) = nil error, want failure", s)
		}
	}
}

func TestParseScheduleEvents(t *testing.T) {
	sched, err := ParseSchedule("crash@3m+30s:api-cluster-2/15s")
	if err != nil {
		t.Fatalf("ParseSchedule: %v", err)
	}
	ev := sched.Events[0]
	if ev.Kind != BackendCrash || ev.At != 3*time.Minute || ev.Duration != 30*time.Second ||
		ev.Backend != "api-cluster-2" || ev.SlowStart != 15*time.Second {
		t.Fatalf("bad crash event: %+v", ev)
	}

	sched, err = ParseSchedule("partition@90s:cluster-2/*")
	if err != nil {
		t.Fatalf("ParseSchedule: %v", err)
	}
	ev = sched.Events[0]
	if ev.Kind != Partition || ev.At != 90*time.Second || ev.Duration != 0 || ev.To != "*" {
		t.Fatalf("bad partition event: %+v", ev)
	}

	sched, err = ParseSchedule("leaderkill@2m")
	if err != nil {
		t.Fatalf("ParseSchedule: %v", err)
	}
	if ev = sched.Events[0]; ev.Kind != LeaderKill || ev.Target != "" {
		t.Fatalf("bad leaderkill event: %+v", ev)
	}
}

func TestParseScheduleRejects(t *testing.T) {
	bad := []string{
		"",                               // empty schedule
		"partition@2m",                   // missing operands
		"warp@2m+1m:a/b",                 // unknown kind
		"crash+30s:api",                  // missing @time
		"saturate@2m+1m:api/1.5",         // factor out of range
		"saturate@2m:api/0.5",            // saturate must heal
		"delay@2m+1m:a/b/not-a-duration", // bad duration operand
		"partition@-5s+1m:a/b",           // negative time
		"scrapedrop@1m+30s:extra",        // scrapedrop takes no operands
	}
	for _, s := range bad {
		if _, err := ParseSchedule(s); err == nil {
			t.Errorf("ParseSchedule(%q) = nil error, want failure", s)
		}
	}
}

// clockskew and slowscrape act on every scrape pass: no scraper skews or
// slows one backend's series, so neither kind takes a backend operand.
func TestScrapeSkewAndSlowTakeNoBackend(t *testing.T) {
	for _, s := range []string{"clockskew@1s+1s:6s/api-a", "slowscrape@1s+1s:3/api-a"} {
		_, err := ParseSchedule(s)
		if err == nil || !strings.Contains(err.Error(), "takes 1 operand(s), got 2") {
			t.Errorf("ParseSchedule(%q) = %v, want the one-operand rejection", s, err)
		}
	}
}

// Every kind prints the keyword the grammar reads it by.
func TestKindStringIsTheKeyword(t *testing.T) {
	for k := Partition; k <= BackendFlap; k++ {
		if _, err := parseEvent(k.String() + "@1s"); err != nil && strings.Contains(err.Error(), "unknown event kind") {
			t.Errorf("kind %d prints %q, which the grammar does not know", int(k), k)
		}
	}
}

func TestScheduleStartEnd(t *testing.T) {
	sched, err := ParseSchedule("crash@3m+30s:api; partition@2m+1m:a/b")
	if err != nil {
		t.Fatalf("ParseSchedule: %v", err)
	}
	if got := sched.Start(); got != 2*time.Minute {
		t.Fatalf("Start = %v, want 2m", got)
	}
	end, ok := sched.End()
	if !ok || end != 3*time.Minute+30*time.Second {
		t.Fatalf("End = %v, %v; want 3m30s, true", end, ok)
	}

	sched, err = ParseSchedule("leaderkill@2m")
	if err != nil {
		t.Fatalf("ParseSchedule: %v", err)
	}
	if _, ok := sched.End(); ok {
		t.Fatal("End ok for a never-healing schedule, want false")
	}
	if !strings.Contains(sched.String(), "leaderkill@2m0s") {
		t.Fatalf("String = %q", sched.String())
	}
}
