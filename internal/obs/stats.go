package obs

import (
	"sync"
	"time"

	"github.com/deltacache/delta/internal/netproto"
)

// statsTTL memoizes the StatsMsg fetch across one scrape: a Prometheus
// scrape reads ~20 families registered here, and without memoization
// each would re-fetch the snapshot — on a router that means probing
// every shard twenty times per scrape.
const statsTTL = time.Second

// RegisterStats exposes every netproto.StatFields row that names a
// metric family, plus delta_cached_objects, sourced from fetch at
// scrape time. fetch is memoized for statsTTL; a failing fetch serves
// the last good snapshot (scrapes should degrade, not 500, when a
// shard probe times out). Nil registry no-ops.
func RegisterStats(r *Registry, fetch func() (netproto.StatsMsg, error)) {
	if r == nil {
		return
	}
	var mu sync.Mutex
	var last netproto.StatsMsg
	var at time.Time
	get := func() netproto.StatsMsg {
		mu.Lock()
		defer mu.Unlock()
		if at.IsZero() || time.Since(at) > statsTTL {
			if s, err := fetch(); err == nil {
				last = s
			}
			at = time.Now()
		}
		return last
	}

	for _, f := range netproto.StatFields {
		if f.Metric == "" {
			continue
		}
		scale := 1.0
		if f.Unit == netproto.UnitDuration {
			scale = 1 / float64(time.Second)
		}
		value := func() float64 { s := get(); return float64(*f.Of(&s)) * scale }
		if f.Kind == netproto.StatCounter {
			r.NewCounterFunc(f.Metric, f.Help, value)
		} else {
			r.NewGaugeFunc(f.Metric, f.Help, value)
		}
	}
	r.NewGaugeFunc("delta_cached_objects", "Objects currently resident in this node's cache.",
		func() float64 { s := get(); return float64(len(s.Cached)) })
}
