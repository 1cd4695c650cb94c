package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one interval the harness observed around a call into a layer.
// Spans of one job share Job; Parent is the ID of the span that caused
// this one, -1 for a job's root span.
type span struct {
	Name   string        `json:"name"`
	Job    string        `json:"job"`
	ID     int64         `json:"id"`
	Parent int64         `json:"parent"`
	Start  time.Duration `json:"start_ns"` // from the start of the traced period
	End    time.Duration `json:"end_ns"`
}

// maxSpans bounds the memory of a traced run; spans beyond it are counted
// and dropped.
const maxSpans = 1 << 19

// spanStore keeps a traced run's spans in memory until the run ends. A
// nil *spanStore means tracing is off: callers test for nil before they
// build a span.
type spanStore struct {
	ids     atomic.Int64
	mu      sync.Mutex
	spans   []span
	dropped int
}

func (s *spanStore) newID() int64 { return s.ids.Add(1) }

func (s *spanStore) add(sp span) {
	s.mu.Lock()
	if len(s.spans) < maxSpans {
		s.spans = append(s.spans, sp)
	} else {
		s.dropped++
	}
	s.mu.Unlock()
}

// write stores the spans as one JSON document.
func (s *spanStore) write(path, workload string, seed int64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	doc := struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Dropped  int    `json:"dropped"`
		Spans    []span `json:"spans"`
	}{workload, seed, s.dropped, s.spans}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// summary prints, per span name, how many there were and their median
// length.
func (s *spanStore) summary() {
	byName := map[string][]float64{}
	var order []string
	for _, sp := range s.spans {
		if _, seen := byName[sp.Name]; !seen {
			order = append(order, sp.Name)
		}
		byName[sp.Name] = append(byName[sp.Name], ms(sp.End-sp.Start))
	}
	for _, name := range order {
		fmt.Printf("# span %-22s n=%-7d p50=%.4f ms\n", name, len(byName[name]), median(byName[name]))
	}
}
