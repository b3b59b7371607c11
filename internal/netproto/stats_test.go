package netproto

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/deltacache/delta/internal/cost"
	"github.com/deltacache/delta/internal/model"
)

// fixtureStats returns a StatsMsg with every field set to a distinct
// nonzero value (seed shifts them, so two fixtures differ too). Values
// span one- to five-byte varints so a swapped pair of rows changes the
// encoded bytes.
func fixtureStats(seed int64) StatsMsg {
	return StatsMsg{
		Ledger: cost.Snapshot{
			QueryShip:   cost.Bytes(1_000_001 + seed),
			UpdateShip:  cost.Bytes(2_000_002 + seed),
			ObjectLoad:  cost.Bytes(3_000_003 + seed),
			QueryShips:  4 + seed,
			UpdateShips: 5 + seed,
			ObjectLoads: 6 + seed,
		},
		Cached:               []model.ObjectID{model.ObjectID(7 + seed), model.ObjectID(700 + seed)},
		Policy:               "vcover",
		Queries:              8_000 + seed,
		AtCache:              9 + seed,
		Shipped:              10 + seed,
		DroppedInvalidations: 11 + seed,
		DedupedLoads:         12 + seed,
		MigratedIn:           13 + seed,
		MigratedOut:          14 + seed,
		ObjectsBorn:          15 + seed,
		CoverCacheHits:       160 + seed,
		CoverCacheMisses:     17 + seed,
		SnapshotAge:          18_000_000_000 + timeDuration(seed),
		JournalRecords:       19 + seed,
		RecoveredWarm:        20 + seed,
		Replicas:             21 + seed,
		ResultCacheHits:      220 + seed,
		ResultCacheMisses:    23 + seed,
		CoalescedQueries:     24 + seed,
		GrantBatches:         25 + seed,
	}
}

// statsFixtures are the frames whose encodings testdata/stats holds.
func statsFixtures() map[string]Frame {
	return map[string]Frame{
		"stats.bin": {Type: MsgStats, RequestID: 41, Body: fixtureStats(0)},
		"cluster-stats.bin": {Type: MsgClusterStats, RequestID: 42, Body: ClusterStatsMsg{
			Shards: []ShardStats{
				{Shard: 0, Addr: "127.0.0.1:7801", Alive: true, Stats: fixtureStats(100)},
				{Shard: 1, Addr: "127.0.0.1:7802", Err: "shard 1: connection refused"},
			},
			Aggregate: fixtureStats(200),
			Degraded:  true,
		}},
	}
}

// TestStatsWireFixture pins the MsgStats and MsgClusterStats layouts
// to bytes recorded before the codec walked the stats table: the
// encoder must reproduce them exactly and the decoder must read them
// back to the same bodies, so reordering table rows cannot silently
// change the frame layout.
func TestStatsWireFixture(t *testing.T) {
	for name, f := range statsFixtures() {
		want, err := os.ReadFile(filepath.Join("testdata", "stats", name))
		if err != nil {
			t.Fatal(err)
		}
		if got := encodeFrames(t, f); !bytes.Equal(got, want) {
			t.Errorf("%s: encoding drifted from the recorded layout\n got %x\nwant %x", name, got, want)
		}
		c := NewConn(struct {
			io.Reader
			io.Writer
		}{bytes.NewReader(want), io.Discard})
		got, err := c.Recv()
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if !reflect.DeepEqual(got.Body, f.Body) || got.RequestID != f.RequestID {
			t.Errorf("%s: decoded %+v, want %+v", name, got.Body, f.Body)
		}
	}
}

// TestStatFieldsCoverStatsMsg checks the table against the struct:
// every int64-kinded StatsMsg field (Ledger's and SnapshotAge
// included) has exactly one row, the ledger rows lead, names and
// metric families are unique, and counters alone end in _total.
func TestStatFieldsCoverStatsMsg(t *testing.T) {
	var s StatsMsg
	fields := map[uintptr]string{}
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		for i := 0; i < v.NumField(); i++ {
			f, name := v.Field(i), path+v.Type().Field(i).Name
			switch f.Kind() {
			case reflect.Struct:
				walk(f, name+".")
			case reflect.Int64:
				fields[f.Addr().Pointer()] = name
			}
		}
	}
	walk(reflect.ValueOf(&s).Elem(), "")

	covered := map[string]bool{}
	names, metrics := map[string]bool{}, map[string]bool{}
	for i, f := range StatFields {
		field, ok := fields[reflect.ValueOf(f.Of(&s)).Pointer()]
		switch {
		case !ok:
			t.Errorf("row %q points outside StatsMsg's int64 fields", f.Name)
		case covered[field]:
			t.Errorf("field %s has more than one row", field)
		}
		covered[field] = true
		if ledger := strings.HasPrefix(field, "Ledger."); ledger != (i < statsLedgerRows) {
			t.Errorf("row %d (%s): the first %d rows must be the ledger's", i, field, statsLedgerRows)
		}
		if names[f.Name] {
			t.Errorf("duplicate row name %q", f.Name)
		}
		names[f.Name] = true
		if f.Metric == "" {
			continue
		}
		if metrics[f.Metric] {
			t.Errorf("duplicate metric family %q", f.Metric)
		}
		metrics[f.Metric] = true
		if total := strings.HasSuffix(f.Metric, "_total"); total != (f.Kind == StatCounter) {
			t.Errorf("%s: counters (and only counters) end in _total", f.Metric)
		}
	}
	for _, field := range fields {
		if !covered[field] {
			t.Errorf("StatsMsg.%s has no StatFields row", field)
		}
	}
}

// TestMergeRules pins each row's cluster rule: Replicas (the cluster's
// K) and SnapshotAge (the oldest shard's) take the max, every other row
// sums; Cached and Policy are left alone.
func TestMergeRules(t *testing.T) {
	maxRows := map[string]bool{"replicas": true, "snapshot-age": true}
	for _, f := range StatFields {
		for _, tc := range []struct{ agg, shard, sum, max int64 }{
			{3, 5, 8, 5},
			{5, 3, 8, 5},
		} {
			agg := StatsMsg{Policy: "p", Cached: []model.ObjectID{1}}
			shard := StatsMsg{Policy: "q", Cached: []model.ObjectID{2}}
			*f.Of(&agg), *f.Of(&shard) = tc.agg, tc.shard
			agg.Merge(&shard)
			want := tc.sum
			if maxRows[f.Name] {
				want = tc.max
			}
			if got := *f.Of(&agg); got != want {
				t.Errorf("%s: merge(%d, %d) = %d, want %d", f.Name, tc.agg, tc.shard, got, want)
			}
			if agg.Policy != "p" || !reflect.DeepEqual(agg.Cached, []model.ObjectID{1}) {
				t.Errorf("%s: Merge touched Policy or Cached: %+v", f.Name, agg)
			}
		}
	}
}
