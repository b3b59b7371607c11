package main

import (
	"bufio"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/deltacache/delta/internal/client"
)

// spanRec is one span of the traced run, as written to the span file.
// Program spans (router, fragment, repository) come back with each
// traced answer; the benchmark adds its own around the calls it makes
// (client.query, client.publish, repo.apply_update). Spans of one query
// share its trace ID.
type spanRec struct {
	trace   uint64
	name    string
	parent  string
	shard   int
	source  string
	detail  string
	elapsed time.Duration
}

// layerSamples are the per-layer timings derived from traced answers.
type layerSamples struct {
	// wireHit is client latency minus router span on router-cache hits:
	// client encode, session, loopback and router framing.
	wireHit []time.Duration
	// routerHitSelf is the router span of a result-cache hit.
	routerHitSelf []time.Duration
	// routerMissSelf is the router span minus its longest fragment.
	routerMissSelf []time.Duration
	// fragSelf is a fragment span minus its repository child.
	fragSelf []time.Duration
	repoExec []time.Duration

	routerCache, shardLocal, shipped, mixed int

	spans []spanRec
}

// observe derives one traced answer's layer samples. A shard's spans
// arrive as its fragment span followed by the repository span of the
// query it shipped, if any.
func (l *layerSamples) observe(clientLat time.Duration, res *client.Result) {
	l.spans = append(l.spans, spanRec{trace: res.TraceID, name: "client.query", shard: -1,
		source: res.Source, elapsed: clientLat})
	var (
		routerSpan  time.Duration
		routerSeen  bool
		detail      string
		longestFrag time.Duration
		inFrag      bool
		fragSpan    time.Duration
		fragChild   time.Duration
	)
	endFrag := func() {
		if inFrag {
			l.fragSelf = append(l.fragSelf, fragSpan-fragChild)
		}
	}
	for _, s := range res.Spans {
		parent := "client.query"
		switch s.Name {
		case "router":
			routerSeen, routerSpan, detail = true, s.Elapsed, s.Detail
		case "fragment":
			endFrag()
			inFrag, fragSpan, fragChild = true, s.Elapsed, 0
			longestFrag = max(longestFrag, s.Elapsed)
			parent = "router"
		case "repository":
			l.repoExec = append(l.repoExec, s.Elapsed)
			if inFrag {
				fragChild += s.Elapsed
				parent = "fragment"
			}
		}
		l.spans = append(l.spans, spanRec{trace: res.TraceID, name: s.Name, parent: parent,
			shard: s.Shard, source: s.Source, detail: s.Detail, elapsed: s.Elapsed})
	}
	endFrag()
	switch {
	case routerSeen && strings.Contains(detail, "result-cache=hit"):
		l.routerCache++
		l.routerHitSelf = append(l.routerHitSelf, routerSpan)
		l.wireHit = append(l.wireHit, clientLat-routerSpan)
	case routerSeen && strings.Contains(detail, "coalesced=follower"):
		l.routerCache++
	default:
		if routerSeen {
			l.routerMissSelf = append(l.routerMissSelf, routerSpan-longestFrag)
		}
		switch res.Source {
		case "cache":
			l.shardLocal++
		case "repository":
			l.shipped++
		case "mixed":
			l.mixed++
		}
	}
}

func (l *layerSamples) merge(o *layerSamples) {
	l.wireHit = append(l.wireHit, o.wireHit...)
	l.routerHitSelf = append(l.routerHitSelf, o.routerHitSelf...)
	l.routerMissSelf = append(l.routerMissSelf, o.routerMissSelf...)
	l.fragSelf = append(l.fragSelf, o.fragSelf...)
	l.repoExec = append(l.repoExec, o.repoExec...)
	l.routerCache += o.routerCache
	l.shardLocal += o.shardLocal
	l.shipped += o.shipped
	l.mixed += o.mixed
	l.spans = append(l.spans, o.spans...)
}

// spanFile writes the traced rounds' spans as tab-separated lines. Each
// round's spans stay in memory until the round has ended and are written
// then, outside the measured replay, and dropped, so kept spans neither
// grow the heap of later rounds nor cost time inside one.
type spanFile struct {
	f  *os.File
	bw *bufio.Writer
}

func createSpanFile(path string) (*spanFile, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	sf := &spanFile{f: f, bw: bufio.NewWriter(f)}
	fmt.Fprintln(sf.bw, "round\ttrace\tspan\tparent\tshard\tsource\tdetail\telapsed_us")
	return sf, nil
}

func (sf *spanFile) write(round int, spans []spanRec) {
	for _, s := range spans {
		fmt.Fprintf(sf.bw, "%d\t%d\t%s\t%s\t%d\t%s\t%s\t%.3f\n", round, s.trace, s.name, s.parent,
			s.shard, s.source, s.detail, float64(s.elapsed)/float64(time.Microsecond))
	}
}

func (sf *spanFile) close() error {
	if err := sf.bw.Flush(); err != nil {
		sf.f.Close()
		return err
	}
	return sf.f.Close()
}
