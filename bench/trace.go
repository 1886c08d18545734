package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// traceEvent is one complete ("X") event of the Chrome trace_event format.
type traceEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`  // µs since the run's first round
	Dur  float64           `json:"dur"` // µs
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args"`
}

// writeTrace writes the traced rounds of a run as out/NAME.trace.json and
// the run's per-layer metrics, with span statistics, as
// out/NAME.layers.json. Every span carries the run's trace ID, its own ID
// and its parent's; a round's ops are children of the round's span.
func writeTrace(out, name string, seed int64, rounds []*Round, metrics map[string]float64) error {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	sum := sha256.Sum256([]byte(fmt.Sprintf("%s/%d/%d", name, seed, rounds[0].StartUnixNS)))
	traceID := hex.EncodeToString(sum[:16])
	spanID := func(round, id int) string { return fmt.Sprintf("%08x%08x", round, id) }

	var events []traceEvent
	var traced []*Round
	for i, r := range rounds {
		if len(r.Spans) == 0 {
			continue
		}
		traced = append(traced, r)
		off := float64(r.StartUnixNS-rounds[0].StartUnixNS) / 1e3
		events = append(events, traceEvent{
			Name: fmt.Sprintf("%s round %d", name, i), Ph: "X", Ts: off, Dur: r.WallS * 1e6, Pid: 1, Tid: 0,
			Args: map[string]string{"trace_id": traceID, "span_id": spanID(i, 0)},
		})
		lanes := spanLanes(r.Spans)
		for _, sp := range r.Spans {
			ev := traceEvent{
				Name: sp.Name, Ph: "X", Ts: off + float64(sp.Start)/1e3, Dur: float64(sp.Dur) / 1e3, Pid: 1,
				Tid:  lanes[sp.ID],
				Args: map[string]string{"trace_id": traceID, "span_id": spanID(i, sp.ID), "parent_id": spanID(i, sp.Parent)},
			}
			if sp.Arg != "" {
				ev.Name += " " + sp.Arg
			}
			events = append(events, ev)
		}
	}
	doc := map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
		"otherData":       map[string]any{"workload": name, "seed": seed, "trace_id": traceID},
	}
	if err := writeJSON(filepath.Join(out, name+".trace.json"), doc); err != nil {
		return err
	}
	return writeJSON(filepath.Join(out, name+".layers.json"), map[string]any{
		"workload":      name,
		"seed":          seed,
		"trace_id":      traceID,
		"traced_rounds": len(traced),
		"metrics":       metrics,
		"spans":         spanStats(traced),
	})
}

// spanLanes gives every span a trace row: top-level spans go to the
// lowest row free at their start, so concurrent calls sit side by side;
// a child shares its parent's row. Rows start at 1, under the round's.
func spanLanes(spans []Span) map[int]int {
	top := make([]Span, 0, len(spans))
	for _, sp := range spans {
		if sp.Parent == 0 {
			top = append(top, sp)
		}
	}
	sort.Slice(top, func(i, j int) bool { return top[i].Start < top[j].Start })
	lane := map[int]int{}
	var busyUntil []int64
	for _, sp := range top {
		l := 0
		for l < len(busyUntil) && busyUntil[l] > sp.Start {
			l++
		}
		if l == len(busyUntil) {
			busyUntil = append(busyUntil, 0)
		}
		busyUntil[l] = sp.Start + sp.Dur
		lane[sp.ID] = l + 1
	}
	for _, sp := range spans {
		if sp.Parent != 0 {
			lane[sp.ID] = lane[sp.Parent]
		}
	}
	return lane
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
