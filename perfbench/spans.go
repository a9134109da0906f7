package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call the benchmark made into a layer. Times are
// nanoseconds since the recorder's base. Parent is 0 for a root span;
// every span of one workload event carries that event's id.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Event  int64  `json:"event"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how the measured (untraced) run uses it.
type recorder struct {
	base  time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

// now returns nanoseconds since the recorder's base.
func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

// add records one span and returns its id (0 on a nil recorder).
func (r *recorder) add(name string, parent, event, start, end int64) int64 {
	if r == nil {
		return 0
	}
	id := int64(len(r.spans) + 1)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Event: event, Name: name, Start: start, End: end})
	return id
}

// durations returns the durations (ns) of every span with the given name.
func (r *recorder) durations(name string) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval that its child spans cover.
func selfTimes(spans []span) map[string]int64 {
	type iv struct{ lo, hi int64 }
	kids := make(map[int64][]iv)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], iv{s.Start, s.End})
		}
	}
	out := make(map[string]int64)
	for _, s := range spans {
		covered := int64(0)
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].lo < cs[j].lo })
		cur := iv{lo: -1, hi: -1}
		flush := func() {
			if cur.hi > cur.lo {
				covered += cur.hi - cur.lo
			}
		}
		for _, c := range cs {
			lo, hi := max(c.lo, s.Start), min(c.hi, s.End)
			if hi <= lo {
				continue
			}
			if cur.hi < 0 || lo > cur.hi {
				flush()
				cur = iv{lo, hi}
			} else if hi > cur.hi {
				cur.hi = hi
			}
		}
		flush()
		out[s.Name] += (s.End - s.Start) - covered
	}
	return out
}

// write stores the spans as JSON lines at path.
func (r *recorder) write(path string) error {
	if r == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
