package metrics

import (
	"encoding/binary"
	"fmt"
	"strconv"
)

// SameMap reports whether a and b are one map object, not merely equal ones.
func SameMap(a, b Labels) bool { return identity(a) == identity(b) }

// holds reports whether the descriptor table holds an entry under k.
func (t *descriptors) holds(k descriptorKey) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.m[k] != nil
}

// len returns the number of descriptors in the table.
func (t *descriptors) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.m)
}

// AuditDescriptors checks every descriptor in the process-wide table against
// its key: its label map must still spell the key, and its templates, once
// built, must be the series' samples — a counter's or gauge's one sample of
// its kind on that map, a histogram's buckets on that map with the bound's
// "le" added, then _sum and _count on that map. It returns how many
// descriptors it checked and how many samples their templates describe.
func AuditDescriptors() (series, samples int, err error) {
	described.mu.Lock()
	defer described.mu.Unlock()
	for k, d := range described.m {
		n, w := binary.Uvarint([]byte(k.key))
		if w <= 0 || uint64(len(k.key)-w) < n {
			return 0, 0, fmt.Errorf("descriptor key %q does not start with a name", k.key)
		}
		name := k.key[w : w+int(n)]
		if got := seriesKey(name, d.labels); got != k.key {
			return 0, 0, fmt.Errorf("%s: the descriptor's map %v spells key %q, filed under %q", name, d.labels, got, k.key)
		}
		if err := auditTemplates(k.kind, name, d); err != nil {
			return 0, 0, fmt.Errorf("%s%v: %w", name, d.labels, err)
		}
		samples += len(d.templates)
	}
	return len(described.m), samples, nil
}

func auditTemplates(kind Kind, name string, d *descriptor) error {
	tpl := d.templates
	if tpl == nil {
		return nil
	}
	if kind != 0 {
		if len(tpl) != 1 || tpl[0].Name != name || tpl[0].Kind != kind || !SameMap(tpl[0].Labels, d.labels) {
			return fmt.Errorf("templates %v, want one %v sample on the descriptor's map", tpl, kind)
		}
		return nil
	}
	k := len(d.bounds) + 1
	if len(tpl) != k+2 {
		return fmt.Errorf("%d templates for %d bounds", len(tpl), len(d.bounds))
	}
	for i, s := range tpl[:k] {
		le := "+Inf"
		if i < len(d.bounds) {
			le = strconv.FormatFloat(d.bounds[i], 'g', -1, 64)
		}
		if s.Name != name+"_bucket" || s.Kind != KindCounter || !s.Labels.Equal(d.labels.With("le", le)) {
			return fmt.Errorf("bucket %d is %s%v, want le %q", i, s.Name, s.Labels, le)
		}
	}
	for i, suffix := range []string{"_sum", "_count"} {
		if s := tpl[k+i]; s.Name != name+suffix || s.Kind != KindCounter || !SameMap(s.Labels, d.labels) {
			return fmt.Errorf("template %d is %s%v, want %s%s on the descriptor's map", k+i, s.Name, s.Labels, name, suffix)
		}
	}
	return nil
}
