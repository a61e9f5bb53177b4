package main

import (
	"math"
	"math/rand"
)

// Learner scripts. Every response a simulated learner gives is drawn from a
// generator keyed by (run seed, learner, sitting), so the same seed replays
// the same answers and the benchmark can tally the expected outcome of every
// sitting without asking the system under test.

// scriptRand returns the generator for one sitting of one learner.
func scriptRand(seed int64, learner, sitting int) *rand.Rand {
	// SplitMix64 finalizer over the three coordinates: neighbouring
	// (learner, sitting) pairs get unrelated streams.
	x := uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(learner)<<32 ^ uint64(sitting)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return rand.New(rand.NewSource(int64(x)))
}

// itemParams are an item's 2PL parameters: discrimination a, difficulty b.
type itemParams struct{ A, B float64 }

// probCorrect is the 2PL probability that a learner of ability theta
// answers the item correctly.
func (p itemParams) probCorrect(theta float64) float64 {
	return 1 / (1 + math.Exp(-p.A*(theta-p.B)))
}

// learner is one sitting's simulated test taker: an ability drawn from the
// standard normal population and the generator its answers come from.
type learner struct {
	Theta float64
	rng   *rand.Rand
}

func newLearner(seed int64, worker, sitting int) *learner {
	rng := scriptRand(seed, worker, sitting)
	return &learner{Theta: rng.NormFloat64(), rng: rng}
}

// answer returns "A" (the key of every benchmark item) with the item's
// probability of a correct answer, otherwise a distractor.
func (l *learner) answer(p itemParams) string {
	if l.rng.Float64() < p.probCorrect(l.Theta) {
		return "A"
	}
	return string(rune('B' + l.rng.Intn(3)))
}

// fixedScript returns a fixed-form sitting's responses, one per problem in
// the order given, and the number of correct ("A") responses among them.
func fixedScript(seed int64, worker, sitting int, order []string, params map[string]itemParams) (responses []string, correct int) {
	l := newLearner(seed, worker, sitting)
	responses = make([]string, len(order))
	for i, pid := range order {
		responses[i] = l.answer(params[pid])
		if responses[i] == "A" {
			correct++
		}
	}
	return responses, correct
}
