package sweep

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"drainnet/internal/metrics"
	"drainnet/internal/tensor"
)

// retainingOracle is a Submitter that uses the Submitter contract to the
// full: it keeps x for as long as the contract lets it — until a nil-error
// return, or past an error return as a cancelled pool's replica would —
// and reports every change it sees to a tensor it still holds. Its answer
// hashes the pixels it holds at the *end* of the call, so a sweep that
// cut its next window early also changes the hits.
type retainingOracle struct {
	pixelOracle
	t *testing.T
	// failAt, when > 0, makes that call fail and keep x for hold.
	failAt int64
	fail   error
	hold   time.Duration
	bg     sync.WaitGroup
}

func (o *retainingOracle) Submit(ctx context.Context, x *tensor.Tensor) (metrics.Detection, error) {
	before := slices.Clone(x.Data())
	if o.failAt > 0 && o.calls.Load()+1 >= o.failAt {
		o.calls.Add(1)
		o.bg.Add(1)
		go func() {
			defer o.bg.Done()
			for end := time.Now().Add(o.hold); time.Now().Before(end); runtime.Gosched() {
				if !slices.Equal(x.Data(), before) {
					o.t.Error("the sweep wrote a tensor whose Submit had failed")
					return
				}
			}
		}()
		return metrics.Detection{}, o.fail
	}
	for i := 0; i < 20; i++ {
		runtime.Gosched() // let the other workers cut and submit meanwhile
	}
	if !slices.Equal(x.Data(), before) {
		o.t.Error("the sweep wrote a tensor while its Submit was still running")
	}
	return o.pixelOracle.Submit(ctx, x)
}

// Each sweep worker cuts every window into one tensor of its own. That is
// only sound under the Submitter contract — x is the sweep's again after
// a nil-error return and never after an error — so hold the sweep to it.
func TestSweepReusesClipOnlyAfterSubmitReturns(t *testing.T) {
	spec := suiteSpec("baseline")
	wantHits, want := runToDone(t, &pixelOracle{}, spec)
	if len(wantHits) == 0 {
		t.Fatal("degenerate reference: no hits")
	}
	gotHits, got := runToDone(t, &retainingOracle{t: t}, spec)
	if !reflect.DeepEqual(gotHits, wantHits) {
		t.Errorf("hits differ when the submitter reads the clip late:\n got %v\nwant %v", gotHits, wantHits)
	}
	if got.Inferred != want.Inferred || got.Exited != want.Exited {
		t.Errorf("counters differ: inferred %d exited %d, want %d and %d", got.Inferred, got.Exited, want.Inferred, want.Exited)
	}

	boom := errors.New("replica lost")
	o := &retainingOracle{t: t, failAt: 9, fail: boom, hold: 20 * time.Millisecond}
	m := newTestManager(t, o, "")
	defer m.Close()
	j, err := m.Start(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitDone(t, j); st.State != StateFailed {
		t.Errorf("state = %q (%s), want %q", st.State, st.Error, StateFailed)
	}
	o.bg.Wait()
}
