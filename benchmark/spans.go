package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one op share Op;
// Parent is the index of the span that caused this one (-1 for a root).
// Times are nanoseconds on the tracer's monotonic clock.
type span struct {
	Name       string
	Op         uint64
	Parent     int
	Start, End int64
}

// tracer keeps spans in memory and writes them out when the run ends. A nil
// tracer records nothing, so the untraced path pays one nil check per call
// site and no more.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// now returns nanoseconds since the tracer's epoch (monotonic).
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its index, or -1 on a nil tracer.
func (t *tracer) begin(name string, op uint64, parent int) int {
	if t == nil {
		return -1
	}
	start := t.now()
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: start, End: start})
	i := len(t.spans) - 1
	t.mu.Unlock()
	return i
}

// end closes the span begin returned.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[i].End = end
	t.mu.Unlock()
}

// add records a root span whose interval the caller measured.
func (t *tracer) add(name string, op uint64, start, end int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: -1, Start: start, End: end})
	t.mu.Unlock()
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its direct children cover (overlapping children are merged first, and
// children are clipped to the parent's interval).
func selfTimes(spans []span) []int64 {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] = s.End - s.Start
		ivs := children[i]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		cursor := s.Start
		for _, iv := range ivs {
			lo, hi := iv[0], iv[1]
			if lo < cursor {
				lo = cursor
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				out[i] -= hi - lo
				cursor = hi
			}
		}
	}
	return out
}

// layerTotal is what the spans of one name add up to.
type layerTotal struct {
	Count      int
	Total, Own int64 // nanoseconds; Own is self time
}

// totalsByName sums span durations and self times by name.
func totalsByName(spans []span) map[string]layerTotal {
	self := selfTimes(spans)
	out := make(map[string]layerTotal)
	for i, s := range spans {
		lt := out[s.Name]
		lt.Count++
		lt.Total += s.End - s.Start
		lt.Own += self[i]
		out[s.Name] = lt
	}
	return out
}

// maxSpansWritten caps the span file: a serve run records two spans per
// request, and a file of the first 50 000 shows the shape of every op.
const maxSpansWritten = 50000

// writeSpans writes spans as CSV under dir (created if absent) and returns
// the file's path.
func writeSpans(dir, workload string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("creating span directory: %w", err)
	}
	path := filepath.Join(dir, workload+".spans.csv")
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("creating span file: %w", err)
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "# %d spans recorded, first %d written\nindex,parent,op,name,start_ns,end_ns\n", len(spans), min(len(spans), maxSpansWritten))
	for i, s := range spans {
		if i >= maxSpansWritten {
			break
		}
		fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d\n", i, s.Parent, s.Op, s.Name, s.Start, s.End)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("writing span file: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("closing span file: %w", err)
	}
	return path, nil
}
