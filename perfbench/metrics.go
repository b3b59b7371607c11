package main

import (
	"fmt"
	"io"
	"math"
	"slices"
	"time"

	"github.com/deltacache/delta/internal/cost"
)

// endToEnd reports what a user of the deployment sees. Every metric is
// the median of the rounds' own values, so a few rounds disturbed by the
// shared machine, or whose cold start happened to load the largest
// objects, do not set the figure. The p99s are per-layer metrics: on a
// 2-core VM whose speed drifts, their spread from run to run exceeds the
// largest bound an end-to-end metric may have.
func endToEnd(m map[string]metric, rounds []*roundResult, log io.Writer) {
	var (
		samples, publishes          int
		qps, p50, p90, traffic, pub []float64
		setup, heap                 []float64
	)
	for _, r := range rounds {
		samples += len(r.queryLat)
		publishes += len(r.publishLat)
		qps = append(qps, float64(r.queries)/r.replay.Seconds())
		p50 = append(p50, ms(quantile(r.queryLat, 0.50)))
		p90 = append(p90, ms(quantile(r.queryLat, 0.90)))
		traffic = append(traffic, mbPerKQuery(r.ledger.Total(), r.queries))
		pub = append(pub, ms(quantile(r.publishLat, 0.50)))
		setup = append(setup, r.setup.Seconds())
		heap = append(heap, float64(r.heapBytes)/float64(cost.MB))
	}
	fmt.Fprintf(log, "samples: %d rounds, %d query latencies, %d publish latencies\n",
		len(rounds), samples, publishes)
	m["throughput_qps"] = metric{median(qps), "1/s"}
	m["query_p50_ms"] = metric{median(p50), "ms"}
	m["query_p90_ms"] = metric{median(p90), "ms"}
	m["traffic_mb_per_kquery"] = metric{median(traffic), "MB/kquery"}
	m["publish_p50_ms"] = metric{median(pub), "ms"}
	m["setup_s"] = metric{median(setup), "s"}
	m["heap_mb"] = metric{median(heap), "MB"}
}

// perLayer reports each layer's counters and self times. Counters and
// spans come from the traced rounds; process metrics and the p99s from
// the untraced ones, which is what the end-to-end figures experience.
// Query p99 is the median of the rounds' own p99s, as query p90 is.
func perLayer(m map[string]metric, rounds []*roundResult, failed, attempted int) {
	var (
		t          layerSamples
		rc         routerCounters
		led        cost.Snapshot
		queries    int
		fragments  = make([]int64, shards)
		atCache    int64
		shipped    int64
		deduped    int64
		drops      int64
		born       int64
		policy     policyTimes
		applyLat   []time.Duration
		qpsTraced  []float64
		qpsPlain   []float64
		cpu        time.Duration
		replay     time.Duration
		alloc      uint64
		gcs        uint32
		plainQ     int
		goroutines []float64
		queryP99   []float64
		publishLat []time.Duration
	)
	for _, r := range rounds {
		qps := float64(r.queries) / r.replay.Seconds()
		if !r.traced {
			qpsPlain = append(qpsPlain, qps)
			cpu += r.cpu
			replay += r.replay
			alloc += r.allocBytes
			gcs += r.gcs
			plainQ += r.queries
			goroutines = append(goroutines, float64(r.goroutines))
			queryP99 = append(queryP99, ms(quantile(r.queryLat, 0.99)))
			publishLat = append(publishLat, r.publishLat...)
			continue
		}
		qpsTraced = append(qpsTraced, qps)
		t.merge(&r.layers)
		queries += r.queries
		rc.queries += r.router.queries
		rc.hits += r.router.hits
		rc.coalesced += r.router.coalesced
		rc.invalidations += r.router.invalidations
		rc.scattered += r.router.scattered
		rc.degraded += r.router.degraded
		rc.rerouted += r.router.rerouted
		rc.failover += r.router.failover
		rc.hedged += r.router.hedged
		rc.grantBatches += r.router.grantBatches
		rc.births += r.router.births
		led.QueryShip += r.ledger.QueryShip
		led.UpdateShip += r.ledger.UpdateShip
		led.ObjectLoad += r.ledger.ObjectLoad
		led.QueryShips += r.ledger.QueryShips
		led.ObjectLoads += r.ledger.ObjectLoads
		for i, s := range r.shards {
			fragments[i] += s.Queries
			atCache += s.AtCache
			shipped += s.Shipped
			deduped += s.DedupedLoads
		}
		drops += r.repoDrops
		born += r.repoBorn
		policy.onQuery = append(policy.onQuery, r.policy.onQuery...)
		policy.onUpdate = append(policy.onUpdate, r.policy.onUpdate...)
		policy.grow = append(policy.grow, r.policy.grow...)
		applyLat = append(applyLat, r.applyLat...)
	}
	var fragTotal, fragMax int64
	for _, f := range fragments {
		fragTotal += f
		fragMax = max(fragMax, f)
	}
	kq := float64(queries) / 1000
	answered := t.routerCache + t.shardLocal + t.shipped + t.mixed

	set := func(name, unit string, v float64) { m[name] = metric{v, unit} }
	set("client.wire_hit_p50_us", "us", us(quantile(t.wireHit, 0.50)))
	set("client.query_p99_ms", "ms", median(queryP99))
	set("client.publish_p99_ms", "ms", ms(quantile(publishLat, 0.99)))

	set("router.result_cache_hit_share", "ratio", ratio(rc.hits, rc.queries))
	set("router.coalesced_share", "ratio", ratio(rc.coalesced, rc.queries))
	set("router.invalidations_per_kquery", "count/kquery", perK(rc.invalidations, kq))
	set("router.scatter_share", "ratio", ratio(rc.scattered, rc.queries))
	set("router.hit_self_p50_us", "us", us(quantile(t.routerHitSelf, 0.50)))
	set("router.miss_self_p50_us", "us", us(quantile(t.routerMissSelf, 0.50)))
	set("router.miss_self_p99_us", "us", us(quantile(t.routerMissSelf, 0.99)))
	set("router.grant_batches", "count", float64(rc.grantBatches))
	set("router.births_per_grant", "births/grant", ratio(rc.births, rc.grantBatches))
	set("router.degraded", "count", float64(rc.degraded))
	set("router.rerouted", "count", float64(rc.rerouted))
	set("router.failover", "count", float64(rc.failover))
	set("router.hedged", "count", float64(rc.hedged))

	set("shard.fragments_per_kquery", "count/kquery", perK(fragTotal, kq))
	set("shard.local_share", "ratio", ratio(atCache, fragTotal))
	set("shard.shipped_share", "ratio", ratio(shipped, fragTotal))
	set("shard.deduped_loads", "count", float64(deduped))
	set("shard.fragment_self_p50_us", "us", us(quantile(t.fragSelf, 0.50)))
	set("shard.fragment_self_p99_us", "us", us(quantile(t.fragSelf, 0.99)))
	imbalance := 0.0
	if fragTotal > 0 {
		imbalance = float64(fragMax) / (float64(fragTotal) / float64(len(fragments)))
	}
	set("shard.imbalance", "ratio", imbalance)

	set("policy.on_query_p50_us", "us", us(quantile(policy.onQuery, 0.50)))
	set("policy.on_query_p99_us", "us", us(quantile(policy.onQuery, 0.99)))
	set("policy.on_update_p50_us", "us", us(quantile(policy.onUpdate, 0.50)))
	set("policy.on_update_p99_us", "us", us(quantile(policy.onUpdate, 0.99)))
	set("policy.grow_p50_us", "us", us(quantile(policy.grow, 0.50)))

	set("repo.query_ship_mb_per_kquery", "MB/kquery", mbPerKQuery(led.QueryShip, queries))
	set("repo.update_ship_mb_per_kquery", "MB/kquery", mbPerKQuery(led.UpdateShip, queries))
	set("repo.object_load_mb_per_kquery", "MB/kquery", mbPerKQuery(led.ObjectLoad, queries))
	set("repo.query_ships_per_kquery", "count/kquery", perK(led.QueryShips, kq))
	set("repo.object_loads_per_kquery", "count/kquery", perK(led.ObjectLoads, kq))
	set("repo.exec_p50_us", "us", us(quantile(t.repoExec, 0.50)))
	set("repo.exec_p99_us", "us", us(quantile(t.repoExec, 0.99)))
	set("repo.apply_update_p50_us", "us", us(quantile(applyLat, 0.50)))
	set("repo.apply_update_p99_us", "us", us(quantile(applyLat, 0.99)))
	set("repo.dropped_invalidations", "count", float64(drops))
	set("repo.objects_born", "count", float64(born))

	set("answer.router_cache_share", "ratio", ratio(int64(t.routerCache), int64(answered)))
	set("answer.shard_local_share", "ratio", ratio(int64(t.shardLocal), int64(answered)))
	set("answer.shipped_share", "ratio", ratio(int64(t.shipped), int64(answered)))
	set("answer.mixed_share", "ratio", ratio(int64(t.mixed), int64(answered)))

	set("process.cpu_us_per_query", "us", us(cpu)/math.Max(float64(plainQ), 1))
	set("process.busy_cores", "cores", cpu.Seconds()/math.Max(replay.Seconds(), 1e-9))
	set("process.alloc_kb_per_query", "KB", float64(alloc)/float64(cost.KB)/math.Max(float64(plainQ), 1))
	set("process.gc_per_kquery", "count/kquery", perK(int64(gcs), float64(plainQ)/1000))
	set("process.goroutines_end", "count", median(goroutines))

	overhead := 0.0
	if plain := median(qpsPlain); plain > 0 {
		overhead = (plain - median(qpsTraced)) / plain * 100
	}
	set("trace.overhead_pct", "%", overhead)
	set("error_rate", "ratio", ratio(int64(failed), int64(attempted)))
}

// quantile is the nearest-rank p-quantile of samples (0 when empty).
func quantile(samples []time.Duration, p float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	s := slices.Clone(samples)
	slices.Sort(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func perK(n int64, kq float64) float64 {
	if kq == 0 {
		return 0
	}
	return float64(n) / kq
}

func mbPerKQuery(b cost.Bytes, queries int) float64 {
	if queries == 0 {
		return 0
	}
	return float64(b) / float64(cost.MB) / (float64(queries) / 1000)
}
