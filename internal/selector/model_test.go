package selector

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// TestHeapMatchesModel checks every result of a random Post / Remove /
// PopMin / PeekMin / Contains sequence against a plain set → saturation map,
// at the selector sizes the ablation sweep uses. The heap may break ties
// between equally saturated sets as it likes; the model only insists that
// whatever it popped or displaced was a legitimate choice.
func TestHeapMatchesModel(t *testing.T) {
	for _, capacity := range []int{1, 4, 16, 64} {
		t.Run(fmt.Sprint(capacity), func(t *testing.T) {
			h, model := New(capacity), map[int]int{}
			extreme := func(sign int) int { // least (sign 1) or most (-1) saturated resident
				best, first := 0, true
				for _, sat := range model {
					if first || sign*sat < sign*best {
						best, first = sat, false
					}
				}
				return best
			}
			rng := sim.NewRNG(uint64(capacity))
			for step := 0; step < 20000; step++ {
				set, sat := rng.Intn(3*capacity), rng.Intn(16)
				switch op := rng.Intn(8); {
				case op < 4:
					_, resident := model[set]
					full := len(model) == capacity
					accepted, displaced := h.Post(set, sat)
					wantAccept := resident || !full || sat < extreme(-1)
					wantDisplace := !resident && full && wantAccept
					if accepted != wantAccept || (displaced >= 0) != wantDisplace {
						t.Fatalf("step %d: Post(%d, %d) = %v, %d; model %v", step, set, sat, accepted, displaced, model)
					}
					if displaced >= 0 {
						if got, ok := model[displaced]; !ok || got != extreme(-1) {
							t.Fatalf("step %d: displaced %d, not a most-saturated resident of %v", step, displaced, model)
						}
						delete(model, displaced)
					}
					if accepted {
						model[set] = sat
					}
				case op < 6:
					_, resident := model[set]
					if h.Remove(set) != resident {
						t.Fatalf("step %d: Remove(%d) disagrees with model %v", step, set, model)
					}
					delete(model, set)
				default:
					peekSet, peekSat, ok := h.PeekMin()
					if ok != (len(model) > 0) {
						t.Fatalf("step %d: PeekMin ok=%v with %d resident", step, ok, len(model))
					}
					if ok && (model[peekSet] != peekSat || peekSat != extreme(1)) {
						t.Fatalf("step %d: PeekMin = (%d, %d), model %v", step, peekSet, peekSat, model)
					}
					if op == 7 && ok {
						if s, v, _ := h.PopMin(); s != peekSet || v != peekSat {
							t.Fatalf("step %d: PopMin = (%d, %d) after PeekMin (%d, %d)", step, s, v, peekSet, peekSat)
						}
						delete(model, peekSet)
					}
				}
				_, resident := model[set]
				if h.Contains(set) != resident || h.Len() != len(model) {
					t.Fatalf("step %d: Contains(%d)=%v Len=%d, model %v", step, set, h.Contains(set), h.Len(), model)
				}
			}
		})
	}
}
