package main

import (
	"fmt"
	"sync"
	"time"

	"github.com/deltacache/delta/internal/catalog"
	"github.com/deltacache/delta/internal/client"
	"github.com/deltacache/delta/internal/cluster"
	"github.com/deltacache/delta/internal/core"
	"github.com/deltacache/delta/internal/cost"
	"github.com/deltacache/delta/internal/model"
	"github.com/deltacache/delta/internal/netproto"
	"github.com/deltacache/delta/internal/server"
)

// The pinned deployment. Every knob is set explicitly, even where it
// equals the package default, so a default that moves cannot silently
// change what the benchmark measures.
const (
	shards          = 2
	replicas        = 1
	clientConns     = 2
	capacityPercent = 5 // shard capacity as a share of a shard's mean owned bytes
	requestTimeout  = 10 * time.Second
)

// surveyConfig is the universe every workload runs on: BenchmarkScenario's
// 8,192 uniform objects, 8 GB logical.
func surveyConfig() catalog.Config {
	return catalog.Config{
		Seed:          7,
		NumObjects:    8192,
		TotalSize:     8 * cost.GB,
		MinObjectSize: 64 * cost.KB,
		MaxObjectSize: 16 * cost.MB,
		Blobs:         10,
		Uniform:       true,
	}
}

// deployment is one pinned in-process Delta: repository, two HTM-aware
// VCover shards and the router, all on loopback, plus the benchmark's
// client connections to the router.
type deployment struct {
	repo    *server.Repository
	cluster *cluster.LocalCluster
	clients []*client.Client
}

// deploy builds a fresh survey and stands the deployment up on it. A
// non-nil policyTimes wraps each shard's policy in a timing decorator
// and dials the clients WithTrace, which is the traced configuration.
func deploy(pt *policyTimes) (*deployment, error) {
	survey, err := catalog.NewSurvey(surveyConfig())
	if err != nil {
		return nil, fmt.Errorf("survey: %w", err)
	}
	repo, err := server.New(server.Config{
		Addr:      "127.0.0.1:0",
		Survey:    survey,
		Scale:     netproto.DefaultScale(),
		ExecDelay: 0,
		Replicas:  replicas,
	})
	if err != nil {
		return nil, fmt.Errorf("repository: %w", err)
	}
	if err := repo.Start(); err != nil {
		return nil, fmt.Errorf("repository start: %w", err)
	}
	d := &deployment{repo: repo}
	policy := func(int) core.Policy { return core.NewVCover(core.DefaultVCoverConfig()) }
	if pt != nil {
		policy = func(int) core.Policy {
			return &timedPolicy{Policy: core.NewVCover(core.DefaultVCoverConfig()), times: pt}
		}
	}
	d.cluster, err = cluster.SpawnLocal(cluster.LocalConfig{
		RepoAddr:        repo.Addr(),
		Objects:         survey.Objects(),
		Shards:          shards,
		Mode:            cluster.HTMAware,
		Replicas:        replicas,
		Hedge:           false,
		ShardCapacity:   survey.TotalSize() / shards * capacityPercent / 100,
		Policy:          policy,
		Scale:           netproto.DefaultScale(),
		ExecDelay:       0,
		ResultCacheSize: cluster.DefaultResultCacheSize,
	})
	if err != nil {
		d.close()
		return nil, fmt.Errorf("cluster: %w", err)
	}
	opts := []client.Option{client.WithRequestTimeout(requestTimeout)}
	if pt != nil {
		opts = append(opts, client.WithTrace())
	}
	for i := 0; i < clientConns; i++ {
		cl, err := client.DialCluster(d.cluster.Router.Addr(), opts...)
		if err != nil {
			d.close()
			return nil, err
		}
		d.clients = append(d.clients, cl)
	}
	return d, nil
}

func (d *deployment) close() {
	for _, cl := range d.clients {
		cl.Close()
	}
	if d.cluster != nil {
		d.cluster.Close()
	}
	d.repo.Close()
}

// policyTimes collects the durations of a traced deployment's policy
// calls across every shard.
type policyTimes struct {
	mu       sync.Mutex
	onQuery  []time.Duration
	onUpdate []time.Duration
	grow     []time.Duration
}

func (pt *policyTimes) add(samples *[]time.Duration, d time.Duration) {
	pt.mu.Lock()
	*samples = append(*samples, d)
	pt.mu.Unlock()
}

// timedPolicy times the calls a shard makes into its policy. It forwards
// core.Grower, core.Warmable and core.Preloader with the same outcome the
// shard would see from the bare policy, so the shard takes the same paths
// with and without the decorator.
type timedPolicy struct {
	core.Policy
	times *policyTimes
}

func (p *timedPolicy) OnQuery(q *model.Query) (core.Decision, error) {
	start := time.Now()
	d, err := p.Policy.OnQuery(q)
	p.times.add(&p.times.onQuery, time.Since(start))
	return d, err
}

func (p *timedPolicy) OnUpdate(u *model.Update) (core.Decision, error) {
	start := time.Now()
	d, err := p.Policy.OnUpdate(u)
	p.times.add(&p.times.onUpdate, time.Since(start))
	return d, err
}

func (p *timedPolicy) AddObjects(objs []model.Object) (core.Decision, error) {
	g, ok := p.Policy.(core.Grower)
	if !ok {
		return core.Decision{}, fmt.Errorf("policy %s cannot grow its universe", p.Name())
	}
	start := time.Now()
	d, err := g.AddObjects(objs)
	p.times.add(&p.times.grow, time.Since(start))
	return d, err
}

// Warm adopts nothing when the wrapped policy is not Warmable: the shard
// then starts cold, as it would with the bare policy.
func (p *timedPolicy) Warm(ids []model.ObjectID) ([]model.ObjectID, error) {
	if w, ok := p.Policy.(core.Warmable); ok {
		return w.Warm(ids)
	}
	return nil, nil
}

// Preload returns no objects when the wrapped policy is not a Preloader,
// which leaves the cache empty exactly as the bare policy would.
func (p *timedPolicy) Preload() ([]model.ObjectID, bool) {
	if pl, ok := p.Policy.(core.Preloader); ok {
		return pl.Preload()
	}
	return nil, false
}
