package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"

	"github.com/deltacache/delta/internal/client"
	"github.com/deltacache/delta/internal/cost"
	"github.com/deltacache/delta/internal/model"
	"github.com/deltacache/delta/internal/netproto"
)

// Fault injection for the self-test: a run given one of these corrupts
// what the named check inspects, and must then fail.
const (
	corruptAnswer = "answer"
	corruptLedger = "ledger"
)

// maxFailureNotes bounds how many failure messages a round keeps.
const maxFailureNotes = 5

// roundResult is what one round measured: one deployment, one replay of
// one trace, and the checks at quiescence.
type roundResult struct {
	traced    bool
	setup     time.Duration
	replay    time.Duration
	queries   int
	attempted int
	failed    int
	failures  []string

	queryLat   []time.Duration
	publishLat []time.Duration
	births     int // births published, in the trace or as probes

	// Counters read from the layers at quiescence, before the probes.
	ledger    cost.Snapshot
	shards    []netproto.StatsMsg
	router    routerCounters
	repoDrops int64
	repoBorn  int64

	heapBytes  uint64
	goroutines int
	cpu        time.Duration
	allocBytes uint64
	gcs        uint32

	// Traced rounds only.
	layers   layerSamples
	applyLat []time.Duration
	policy   *policyTimes
}

type routerCounters struct {
	queries, hits, coalesced, invalidations, scattered int64
	degraded, rerouted, failover, hedged               int64
	grantBatches, births                               int64
}

func (r *roundResult) fail(err error) {
	r.failed++
	if len(r.failures) < maxFailureNotes {
		r.failures = append(r.failures, err.Error())
	}
}

// runRound stands up a fresh deployment (timed as set-up), replays the
// round's trace through it, checks the ledgers and counters at
// quiescence, publishes the probe births, queries every newborn and tears
// the deployment down.
func runRound(in roundInput, traced bool, corrupt string) (*roundResult, error) {
	r := &roundResult{traced: traced}
	if traced {
		r.policy = &policyTimes{}
	}
	runtime.GC()
	start := time.Now()
	d, err := deploy(r.policy)
	if err != nil {
		return nil, err
	}
	defer d.close()
	r.setup = time.Since(start)

	ctx := context.Background()
	d.replay(ctx, in.events, r, corrupt == corruptAnswer)
	d.checkQuiescent(r, corrupt == corruptLedger)

	// Publish latency on a workload whose trace has no births.
	for i := range in.probe {
		d.publish(ctx, in.probe[i], r)
	}
	if born := d.repo.ObjectsBorn(); born != int64(r.births) {
		r.fail(fmt.Errorf("repository ingested %d births, %d were published", born, r.births))
	}
	d.queryNewborns(ctx, in, r)
	return r, nil
}

// replay drives the trace in order from this goroutine: queries go to
// clientConns closed-loop workers, updates into Repository.ApplyUpdate
// and births through client.AddObjects. A query naming a newborn is
// dispatched only after that birth's publish was acknowledged.
func (d *deployment) replay(ctx context.Context, events []model.Event, r *roundResult, corrupt bool) {
	queries := make(chan *model.Query)
	workers := make([]*worker, len(d.clients))
	var wg sync.WaitGroup
	for i, cl := range d.clients {
		w := &worker{cl: cl, traced: r.traced, corrupt: corrupt && i == 0}
		workers[i] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.run(ctx, queries)
		}()
	}

	before := readProcess()
	start := time.Now()
	for i := range events {
		switch ev := &events[i]; ev.Kind {
		case model.EventQuery:
			queries <- ev.Query
			r.queries++
		case model.EventUpdate:
			if !r.traced {
				d.repo.ApplyUpdate(*ev.Update)
				continue
			}
			t0 := time.Now()
			d.repo.ApplyUpdate(*ev.Update)
			el := time.Since(t0)
			r.applyLat = append(r.applyLat, el)
			r.layers.spans = append(r.layers.spans, spanRec{
				trace: uint64(ev.Update.ID), name: "repo.apply_update", shard: -1, elapsed: el,
			})
		case model.EventBirth:
			d.publish(ctx, *ev.Birth, r)
		}
	}
	close(queries)
	wg.Wait()
	r.replay = time.Since(start)
	after := readProcess()
	r.cpu = after.cpu - before.cpu
	r.allocBytes = after.alloc - before.alloc
	r.gcs = after.gcs - before.gcs
	r.goroutines = runtime.NumGoroutine()

	for _, w := range workers {
		r.attempted += len(w.lat)
		r.queryLat = append(r.queryLat, w.lat...)
		r.failed += w.failed
		for _, f := range w.failures {
			if len(r.failures) < maxFailureNotes {
				r.failures = append(r.failures, f)
			}
		}
		r.layers.merge(&w.layers)
	}
}

// publish sends one birth through the first client connection and
// records its latency.
func (d *deployment) publish(ctx context.Context, b model.Birth, r *roundResult) {
	start := time.Now()
	n, err := d.clients[0].AddObjects(ctx, []model.Birth{b})
	el := time.Since(start)
	r.attempted++
	r.births++
	r.publishLat = append(r.publishLat, el)
	if r.traced {
		r.layers.spans = append(r.layers.spans, spanRec{
			trace: uint64(b.Object.ID), name: "client.publish", shard: -1, elapsed: el,
		})
	}
	switch {
	case err != nil:
		r.fail(fmt.Errorf("publish birth %d: %w", b.Object.ID, err))
	case n != 1:
		r.fail(fmt.Errorf("publish birth %d: repository accepted %d", b.Object.ID, n))
	}
}

// checkQuiescent runs the checks that hold once every replayed operation
// has been answered, and snapshots the layers' counters.
func (d *deployment) checkQuiescent(r *roundResult, corrupt bool) {
	// A shard may still be applying an update shipped on the
	// invalidation stream, so give the two sides of the ledger a moment
	// to meet.
	var shardSum cost.Snapshot
	deadline := time.Now().Add(2 * time.Second)
	for {
		r.ledger = d.repo.Ledger()
		if corrupt {
			r.ledger.QueryShip++
		}
		shardSum = cost.Snapshot{}
		for _, s := range d.cluster.Shards {
			l := s.Ledger()
			shardSum.QueryShip += l.QueryShip
			shardSum.UpdateShip += l.UpdateShip
			shardSum.ObjectLoad += l.ObjectLoad
			shardSum.QueryShips += l.QueryShips
			shardSum.UpdateShips += l.UpdateShips
			shardSum.ObjectLoads += l.ObjectLoads
		}
		if r.ledger == shardSum || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if r.ledger != shardSum {
		r.fail(fmt.Errorf("repository ledger %s != sum of shard ledgers %s", ledgerString(r.ledger), ledgerString(shardSum)))
	}

	rt := d.cluster.Router
	r.router = routerCounters{
		queries:       rt.Queries(),
		hits:          rt.ResultCacheHits(),
		coalesced:     rt.Coalesced(),
		invalidations: rt.ResultCacheInvalidations(),
		scattered:     rt.Scattered(),
		degraded:      rt.Degraded(),
		rerouted:      rt.Rerouted(),
		failover:      rt.Failover(),
		hedged:        rt.Hedged(),
		grantBatches:  rt.GrantBatches(),
		births:        rt.Births(),
	}
	if r.router.queries != int64(r.queries) {
		r.fail(fmt.Errorf("router counted %d queries, %d were sent", r.router.queries, r.queries))
	}
	for _, s := range d.cluster.Shards {
		r.shards = append(r.shards, s.Stats())
	}
	r.repoDrops = d.repo.DroppedInvalidations()
	r.repoBorn = d.repo.ObjectsBorn()

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.heapBytes = ms.HeapAlloc
}

// queryNewborns asks for every object born in the round, one query each:
// a newborn the deployment cannot answer for was not really adopted.
func (d *deployment) queryNewborns(ctx context.Context, in roundInput, r *roundResult) {
	var ids []model.ObjectID
	var nextQuery model.QueryID
	for _, ev := range in.events {
		switch ev.Kind {
		case model.EventBirth:
			ids = append(ids, ev.Birth.Object.ID)
		case model.EventQuery:
			nextQuery = max(nextQuery, ev.Query.ID)
		}
	}
	for _, b := range in.probe {
		ids = append(ids, b.Object.ID)
	}
	for _, id := range ids {
		nextQuery++
		q := model.Query{ID: nextQuery, Objects: []model.ObjectID{id}, Cost: 64 * cost.KB, Tolerance: model.AnyStaleness}
		res, err := d.clients[0].Query(ctx, q)
		r.attempted++
		if err := checkAnswer(&q, res, err); err != nil {
			r.fail(fmt.Errorf("newborn %d: %w", id, err))
		}
	}
}

// checkAnswer is the per-query contract: no error, not degraded, the
// declared logical size, and a known source.
func checkAnswer(q *model.Query, res *client.Result, err error) error {
	switch {
	case err != nil:
		return fmt.Errorf("query %d: %w", q.ID, err)
	case res.Degraded:
		return fmt.Errorf("query %d: degraded answer, missing shards %v", q.ID, res.MissingShards)
	case res.Logical != int64(q.Cost):
		return fmt.Errorf("query %d: logical size %d, declared %d", q.ID, res.Logical, q.Cost)
	}
	switch res.Source {
	case "cache", "repository", "mixed":
		return nil
	}
	return fmt.Errorf("query %d: unknown source %q", q.ID, res.Source)
}

// worker is one closed-loop client connection: it sends its next query
// only once the previous one was answered.
type worker struct {
	cl       *client.Client
	traced   bool
	corrupt  bool
	lat      []time.Duration
	failed   int
	failures []string
	layers   layerSamples
}

func (w *worker) run(ctx context.Context, queries <-chan *model.Query) {
	for q := range queries {
		start := time.Now()
		res, err := w.cl.Query(ctx, *q)
		el := time.Since(start)
		w.lat = append(w.lat, el)
		if w.corrupt && err == nil {
			res.Logical++
			w.corrupt = false
		}
		if err := checkAnswer(q, res, err); err != nil {
			w.failed++
			if len(w.failures) < maxFailureNotes {
				w.failures = append(w.failures, err.Error())
			}
			continue
		}
		if w.traced {
			w.layers.observe(el, res)
		}
	}
}

type processSample struct {
	cpu   time.Duration
	alloc uint64
	gcs   uint32
}

func readProcess() processSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return processSample{
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc: ms.TotalAlloc,
		gcs:   ms.NumGC,
	}
}

// ledgerString prints every byte, so a one-byte mismatch shows.
func ledgerString(s cost.Snapshot) string {
	return fmt.Sprintf("{query ship %d B in %d, update ship %d B in %d, object load %d B in %d}",
		int64(s.QueryShip), s.QueryShips, int64(s.UpdateShip), s.UpdateShips, int64(s.ObjectLoad), s.ObjectLoads)
}
