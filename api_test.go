package twolayer_test

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	twolayer "github.com/twolayer/twolayer"
)

// TestPublicMethodSets pins the exported methods of the package's handle
// types. Range queries have one surface — Search, SearchIDs and
// SearchCount over a Query — and writes one handle, ShardedLive, so a
// shape-specific wrapper, a second error-returning twin or an Index
// mutator that grows back fails here and has to be argued for by editing
// this list.
func TestPublicMethodSets(t *testing.T) {
	for _, tc := range []struct {
		typ  reflect.Type
		want string
	}{
		{reflect.TypeOf((*twolayer.Index)(nil)), "BatchDisk BatchDiskCounts BatchWindow BatchWindowCounts " +
			"Decomposed GridDims Instrumented " +
			"Join JoinParallel KNN KNNExact Len PartitionStats QueryStats " +
			"ReadView ReplicationFactor Save Search SearchCount SearchIDs Space Traced"},
		{reflect.TypeOf((*twolayer.Sharded)(nil)), "BatchDiskCounts BatchWindowCounts Epoch " +
			"GridDims HasExactGeometries KNN KNNExact Len MemoryFootprint PartitionStats QueryStats " +
			"ReplicationFactor Search SearchCount SearchIDs Shards Stats Traced"},
		{reflect.TypeOf((*twolayer.ShardedView)(nil)), "BatchDiskCounts BatchWindowCounts KNN KNNExact Search SearchCount"},
		{reflect.TypeOf((*twolayer.ShardedLive)(nil)), "Apply Close Delete Insert Len Shards Snapshot Stats"},
		{reflect.TypeOf((*twolayer.DurableLive)(nil)), "Checkpoint Close Live Snapshot Stats"},
	} {
		var got []string
		for i := 0; i < tc.typ.NumMethod(); i++ {
			got = append(got, tc.typ.Method(i).Name)
		}
		if want := strings.Fields(tc.want); !slices.Equal(got, want) {
			t.Errorf("%v methods:\n got %v\nwant %v", tc.typ, got, want)
		}
	}
}
