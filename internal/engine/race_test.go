package engine

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"alid/internal/testutil"
)

// The engine's concurrency contract under the race detector: many goroutines
// assigning, listing and polling stats while others ingest and flush, across
// multiple commits and published generations. CI runs this with -race.
func TestConcurrentAssignIngest(t *testing.T) {
	pts, _ := testutil.Blobs(51, [][]float64{{0, 0}, {15, 15}}, 30, 0.3, 10, 0, 15)
	cfg := engineConfig()
	cfg.BatchSize = 20
	e, err := New(cfg, pts)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	const readers = 8
	const writers = 3
	const batchesPerWriter = 6
	const pointsPerBatch = 10
	stopReads := make(chan struct{})

	var readersWG sync.WaitGroup
	for r := 0; r < readers; r++ {
		readersWG.Add(1)
		go func(seed int64, batched bool) {
			defer readersWG.Done()
			rng := rand.New(rand.NewSource(seed))
			qs := make([][]float64, 5)
			var out []Assignment
			for {
				select {
				case <-stopReads:
					return
				default:
				}
				if batched {
					for i := range qs {
						qs[i] = []float64{rng.NormFloat64() * 8, rng.NormFloat64() * 8}
					}
					var err error
					if out, err = e.AssignBatchInto(qs, out); err != nil {
						t.Errorf("assign batch: %v", err)
						return
					}
				} else {
					q := []float64{rng.NormFloat64() * 8, rng.NormFloat64() * 8}
					if _, err := e.Assign(q); err != nil {
						t.Errorf("assign: %v", err)
						return
					}
				}
				switch rng.Intn(8) {
				case 0:
					clustersOf(e)
				case 1:
					e.View().Labels.Flat()
				case 2:
					e.Stats()
				}
			}
		}(int64(100+r), r%2 == 1)
	}

	// Bit-identity under churn: whenever the published generation happens to
	// hold still across one round (same Commits and Evicted fingerprint
	// before and after), the batch answers must equal the sequential ones
	// bit for bit. Rounds interrupted by a publish are simply skipped — the
	// two paths legitimately saw different views.
	readersWG.Add(1)
	go func() {
		defer readersWG.Done()
		rng := rand.New(rand.NewSource(99))
		qs := make([][]float64, 4)
		var out []Assignment
		for {
			select {
			case <-stopReads:
				return
			default:
			}
			for i := range qs {
				qs[i] = []float64{rng.NormFloat64() * 8, rng.NormFloat64() * 8}
			}
			before := e.Stats()
			want := make([]Assignment, len(qs))
			for i, q := range qs {
				a, err := e.Assign(q)
				if err != nil {
					t.Errorf("assign: %v", err)
					return
				}
				want[i] = a
			}
			var err error
			if out, err = e.AssignBatchInto(qs, out); err != nil {
				t.Errorf("assign batch: %v", err)
				return
			}
			after := e.Stats()
			if before.Commits != after.Commits || before.Evicted != after.Evicted {
				continue // a publish raced the round; answers may differ
			}
			for i := range qs {
				if !sameAnswer(out[i], want[i]) {
					t.Errorf("generation-stable round: batch %+v, sequential %+v", out[i], want[i])
					return
				}
			}
		}
	}()

	var writersWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(seed int64) {
			defer writersWG.Done()
			rng := rand.New(rand.NewSource(seed))
			for batch := 0; batch < batchesPerWriter; batch++ {
				batchPts := make([][]float64, pointsPerBatch)
				for i := range batchPts {
					// Half grow the first blob, half arrive as a new blob.
					c := 0.0
					if rng.Intn(2) == 1 {
						c = 30
					}
					batchPts[i] = []float64{c + rng.NormFloat64()*0.3, c + rng.NormFloat64()*0.3}
				}
				if err := e.Ingest(ctx, batchPts); err != nil {
					t.Errorf("ingest: %v", err)
					return
				}
				if batch%2 == 1 {
					if err := e.Flush(ctx); err != nil {
						t.Errorf("flush: %v", err)
						return
					}
				}
			}
		}(int64(200 + w))
	}

	// Eviction churn under the same read load: tombstone a few of the seed
	// points (idempotent retries included) while single and batched assigns
	// keep hitting the shifting published generations.
	var evictWG sync.WaitGroup
	evictWG.Add(1)
	go func() {
		defer evictWG.Done()
		for i := 0; i < 4; i++ {
			if _, err := e.Evict(ctx, []int{i * 3, i*3 + 1, 0}); err != nil {
				t.Errorf("evict: %v", err)
				return
			}
		}
	}()

	writersWG.Wait()
	evictWG.Wait()
	close(stopReads)
	readersWG.Wait()

	if err := e.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	want := len(pts) + writers*batchesPerWriter*pointsPerBatch
	if st.N != want {
		t.Fatalf("N = %d, want %d", st.N, want)
	}
	if st.WriterErrors != 0 {
		t.Fatalf("writer errors: %d", st.WriterErrors)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	// Final consistency between the published labels and clusters.
	labels := e.View().Labels.Flat()
	for ci, cl := range clustersOf(e) {
		for _, m := range cl.Members {
			if labels[m] != ci {
				t.Fatalf("label[%d] = %d, want %d", m, labels[m], ci)
			}
		}
	}
}
