package boss

import (
	"errors"
	"testing"

	"boss/internal/mem"
)

// TestShardedSearchDeadNodeErrors: Search and SearchBatch return no
// degraded mask, so a deployment with a dead node fails them with that
// node's error instead of returning a silently partial ranking.
func TestShardedSearchDeadNodeErrors(t *testing.T) {
	sharded, err := Shard(CCNewsLike, 0.004, 3)
	if err != nil {
		t.Fatal(err)
	}
	sharded.InjectFaults(FaultConfig{Seed: 5, DeadNodes: []int{1}})
	if _, _, err := sharded.Search(`"t0"`, 10); !errors.Is(err, mem.ErrDeviceDown) {
		t.Fatalf("Search on a dead node: err = %v, want ErrDeviceDown", err)
	}
	items := sharded.SearchBatch([]string{`"t0"`, `"t1"`}, 10)
	for i, it := range items {
		if !errors.Is(it.Err, mem.ErrDeviceDown) {
			t.Fatalf("SearchBatch item %d: err = %v, want ErrDeviceDown", i, it.Err)
		}
		if it.Hits != nil || it.Stats != nil {
			t.Fatalf("SearchBatch item %d: failed item carries hits or stats", i)
		}
	}
}
