package main

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/deltacache/delta/internal/catalog"
	"github.com/deltacache/delta/internal/model"
	"github.com/deltacache/delta/internal/workload"
)

// A workload generates one round's trace. Every round of a run replays a
// trace of the same size on its own sub-seed of the run's seed.
type benchWorkload struct {
	name string
	// queries is the number of queries in one round's trace.
	queries int
	// probeBirths is how many births a round publishes after its replay
	// when the trace itself has none, so publish latency is measured on
	// every workload. Workloads with births in the trace publish only
	// those.
	probeBirths int
	events      func(survey *catalog.Survey, seed int64, queries int) ([]model.Event, error)
}

var workloads = []benchWorkload{
	{
		// Zipf 1.25 over 16 drifting anchors, 3 queries per update: the
		// router's result cache answers almost every query. Its rounds
		// are twice the size of the paper traces' so that generating
		// and standing up a round stays a small share of the run.
		name:        "hot-repeat",
		queries:     16000,
		probeBirths: 40,
		events: func(s *catalog.Survey, seed int64, queries int) ([]model.Event, error) {
			return workload.ZipfDrift{}.Events(s, workload.Options{
				Seed: seed, Queries: queries, Updates: queries / 3,
			})
		},
	},
	{
		// The paper-calibrated trace at 1:1 queries:updates; its working
		// set exceeds the 5% shard capacity, so eviction is active.
		name:        "paper-mix",
		queries:     4000,
		probeBirths: 80,
		events:      paperTrace(0),
	},
	{
		// paper-mix plus live births, 30% of later queries on newborns.
		name:    "paper-growth",
		queries: 4000,
		events:  paperTrace(40),
	},
}

// birthsPerKQuery of a paper trace sets its growth rate; zero keeps the
// universe fixed.
func paperTrace(birthsPerKQuery int) func(*catalog.Survey, int64, int) ([]model.Event, error) {
	return func(s *catalog.Survey, seed int64, queries int) ([]model.Event, error) {
		cfg := workload.DefaultConfig()
		cfg.Seed = seed
		cfg.NumQueries = queries
		cfg.NumUpdates = queries
		cfg.GrowthObjects = queries * birthsPerKQuery / 1000
		if cfg.GrowthObjects > 0 {
			cfg.BirthBias = 0.3
		}
		gen, err := workload.NewGenerator(s, cfg)
		if err != nil {
			return nil, err
		}
		return gen.Generate()
	}
}

func lookupWorkload(name string) (benchWorkload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return benchWorkload{}, fmt.Errorf("unknown workload %q (have hot-repeat, paper-mix, paper-growth)", name)
}

// roundInput is one round's generated input: the trace, plus the probe
// births published after it.
type roundInput struct {
	events []model.Event
	probe  []model.Birth
}

// generate builds a round's input on a survey of its own. Generating a
// growth trace adds its births to the survey it is given, so the
// deployment is built from a second survey with the same config: the
// births then reach the deployment only through the replay.
func generate(w benchWorkload, seed int64, queries int) (roundInput, error) {
	survey, err := catalog.NewSurvey(surveyConfig())
	if err != nil {
		return roundInput{}, err
	}
	events, err := w.events(survey, seed, queries)
	if err != nil {
		return roundInput{}, fmt.Errorf("generate %s: %w", w.name, err)
	}
	in := roundInput{events: events}
	for _, ev := range events {
		if ev.Kind == model.EventBirth {
			return in, nil
		}
	}
	if w.probeBirths > 0 {
		var at time.Duration
		if n := len(events); n > 0 {
			at = events[n-1].Time()
		}
		in.probe, err = survey.GrowObjects(rand.New(rand.NewSource(seed)), w.probeBirths, at)
		if err != nil {
			return roundInput{}, fmt.Errorf("probe births: %w", err)
		}
	}
	return in, nil
}
