package analysis

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"mineassess/internal/cognition"
	"mineassess/internal/item"
)

// randomResult builds a seeded class on six four-option items (two of them
// weighted), a true/false item and a completion item. Responses come in
// shuffled order; some are skipped (left out or recorded unanswered) and
// some carry stray option keys. With uniqueIDs false, students sit the exam
// more than once under the same ID.
func randomResult(rng *rand.Rand, students int, uniqueIDs bool) *ExamResult {
	e := &ExamResult{ExamID: "random"}
	for i := 0; i < 6; i++ {
		p, err := item.NewMultipleChoice(fmt.Sprintf("mc%d", i), "choose",
			[]string{"w", "x", "y", "z"}, rng.Intn(4))
		if err != nil {
			panic(err)
		}
		if i%3 == 0 {
			p.Points = float64(1 + rng.Intn(3))
		}
		e.Problems = append(e.Problems, p)
	}
	e.Problems = append(e.Problems,
		&item.Problem{ID: "tf", Style: item.TrueFalse, Question: "true?", Answer: "false"},
		&item.Problem{ID: "cloze", Style: item.Completion, Question: "fill", Answer: "x",
			Blanks: [][]string{{"x"}}})
	for _, p := range e.Problems {
		p.Level = cognition.Levels()[rng.Intn(cognition.NumLevels)]
	}
	choices := map[item.Style][]string{
		item.MultipleChoice: {"A", "B", "C", "D", "Z"},
		item.TrueFalse:      {"true", "false", "maybe"},
	}
	for s := 0; s < students; s++ {
		id := fmt.Sprintf("s%03d", s)
		if !uniqueIDs {
			id = fmt.Sprintf("s%03d", rng.Intn(students/2+1))
		}
		st := StudentResult{StudentID: id, Responses: []Response{}}
		ability := rng.Float64()
		for _, pi := range rng.Perm(len(e.Problems)) {
			p := e.Problems[pi]
			r := Response{StudentID: id, ProblemID: p.ID,
				TimeSpent: time.Duration(rng.Intn(1e9))}
			if x := rng.Float64(); x < 0.05 {
				continue
			} else if x >= 0.1 {
				r.Answered = true
				switch {
				case p.Style == item.Completion:
					r.Credit = float64(rng.Intn(3)) / 2
				case rng.Float64() < ability:
					r.Option = p.CorrectKey()
					r.Credit = 1
				default:
					r.Option = choices[p.Style][rng.Intn(len(choices[p.Style]))]
					r.Credit, _ = p.Grade(r.Option)
				}
			}
			st.Responses = append(st.Responses, r)
		}
		e.Students = append(e.Students, st)
	}
	// Sitting order is not ID order, so ranking ties exercise the ID rule.
	rng.Shuffle(len(e.Students), func(i, j int) {
		e.Students[i], e.Students[j] = e.Students[j], e.Students[i]
	})
	return e
}

// refAnalyze is the map-based algorithm the response matrix replaced: every
// index keyed by student ID, so a retake overwrites the first sitting. On
// results with unique student IDs Analyze must match it exactly.
func refAnalyze(e *ExamResult, fraction float64) *ExamAnalysis {
	idx := make(map[string]map[string]Response, len(e.Problems))
	for _, p := range e.Problems {
		idx[p.ID] = make(map[string]Response)
	}
	for _, s := range e.Students {
		for _, r := range s.Responses {
			idx[r.ProblemID][s.StudentID] = r
		}
	}
	ranked := e.RankedStudents()
	n := len(ranked)
	size := int(float64(n)*fraction + 0.5)
	if size < 1 {
		size = 1
	}
	if 2*size > n {
		size = n / 2
	}
	g := Groups{High: append([]string(nil), ranked[:size]...), Fraction: fraction, ClassSize: n}
	for i := 0; i < size; i++ {
		g.Low = append(g.Low, ranked[n-1-i])
	}
	out := &ExamAnalysis{ExamID: e.ExamID, Groups: g}
	for i, p := range e.Problems {
		byStudent := idx[p.ID]
		q := &QuestionReport{Number: i + 1, ProblemID: p.ID}
		right := 0
		for _, r := range byStudent {
			if r.Correct() {
				right++
			}
		}
		q.OverallP = float64(right) / float64(len(e.Students))
		if p.CorrectKey() == "" {
			prop := func(ids []string) float64 {
				right := 0
				for _, sid := range ids {
					if r, ok := byStudent[sid]; ok && r.Correct() {
						right++
					}
				}
				return float64(right) / float64(len(ids))
			}
			q.PH, q.PL = prop(g.High), prop(g.Low)
			q.D = q.PH - q.PL
			q.P = (q.PH + q.PL) / 2
			q.Signal = EvaluateSignal(q.D, q.Rules)
			out.Questions = append(out.Questions, q)
			continue
		}
		keys := p.OptionKeys()
		if len(keys) == 0 {
			keys = []string{"true", "false"}
		}
		t := &OptionTable{ProblemID: p.ID, Keys: keys,
			High: make(map[string]int), Low: make(map[string]int),
			CorrectKey: p.CorrectKey(), HighSize: len(g.High), LowSize: len(g.Low)}
		tally := func(ids []string, counts map[string]int, unanswered *int) {
			for _, sid := range ids {
				r, ok := byStudent[sid]
				if !ok || !r.Answered || !slices.Contains(keys, r.Option) {
					*unanswered++
					continue
				}
				counts[r.Option]++
			}
		}
		tally(g.High, t.High, &t.HighUnanswered)
		tally(g.Low, t.Low, &t.LowUnanswered)
		q.Table = t
		q.PH, q.PL = t.PH(), t.PL()
		q.D, q.P = t.Discrimination(), t.Difficulty()
		q.Rules = EvaluateRules(t)
		q.Statuses = StatusesFor(q.Rules)
		q.Signal = EvaluateSignal(q.D, q.Rules)
		q.Distractors = AnalyzeDistraction(t)
		out.Questions = append(out.Questions, q)
	}
	return out
}

func TestAnalyzeMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		e := randomResult(rng, 2+rng.Intn(120), true)
		fraction := []float64{DefaultGroupFraction, KellyGroupFraction, 0.33, 0.5}[trial%4]
		got, err := Analyze(e, Options{GroupFraction: fraction})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// The sitting positions name the same members as the IDs.
		if !namesMembers(e, got.Groups.HighPos, got.Groups.High) || !namesMembers(e, got.Groups.LowPos, got.Groups.Low) {
			t.Fatalf("trial %d: positions %v %v do not name members %v %v", trial,
				got.Groups.HighPos, got.Groups.LowPos, got.Groups.High, got.Groups.Low)
		}
		got.Groups.HighPos, got.Groups.LowPos = nil, nil
		if want := refAnalyze(e, fraction); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (%d students, fraction %v): analysis differs from the map-based reference",
				trial, len(e.Students), fraction)
		}
	}
}

// namesMembers reports whether the sitting positions hold the IDs, in order.
func namesMembers(e *ExamResult, pos []int, ids []string) bool {
	if len(pos) != len(ids) {
		return false
	}
	for i, s := range pos {
		if e.Students[s].StudentID != ids[i] {
			return false
		}
	}
	return true
}

// retakeExam is four sittings of two questions keyed A, where s1 sat twice:
// s1 A,A; s1 B,B; s2 A,B; s3 B,B.
func retakeExam(t *testing.T) *ExamResult {
	t.Helper()
	e := &ExamResult{ExamID: "retake"}
	for _, id := range []string{"q1", "q2"} {
		p, err := item.NewMultipleChoice(id, "?", []string{"a", "b"}, 0)
		if err != nil {
			t.Fatal(err)
		}
		e.Problems = append(e.Problems, p)
	}
	for _, sit := range [][3]string{{"s1", "A", "A"}, {"s1", "B", "B"}, {"s2", "A", "B"}, {"s3", "B", "B"}} {
		s := StudentResult{StudentID: sit[0]}
		for i, p := range e.Problems {
			s.Responses = append(s.Responses, choiceResponse(sit[0], p, sit[1+i]))
		}
		e.Students = append(e.Students, s)
	}
	return e
}

func TestAnalyzeCountsRetakesPerSitting(t *testing.T) {
	e := retakeExam(t)
	a, err := Analyze(e, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Question("q1").OverallP; got != 0.5 {
		t.Errorf("q1 OverallP = %v, want 0.5 (2 of 4 sittings)", got)
	}
	if got := a.Question("q2").OverallP; got != 0.25 {
		t.Errorf("q2 OverallP = %v, want 0.25 (1 of 4 sittings)", got)
	}
	// s1's first sitting scored 2 and ranks first; its retake scored 0.
	if !reflect.DeepEqual(a.Groups.HighPos, []int{0}) || !reflect.DeepEqual(a.Groups.High, []string{"s1"}) {
		t.Errorf("high group = %v %v, want s1's first sitting", a.Groups.High, a.Groups.HighPos)
	}
	if tab := a.Question("q1").Table; tab.High["A"] != 1 || tab.Low["B"] != 1 {
		t.Errorf("q1 table high %v low %v", tab.High, tab.Low)
	}

	// At 50% the low group holds s3 and s1's retake, ranked worst first
	// (equal scores fall back to ID, then to sitting order).
	g, err := SplitGroups(e, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g.HighPos, []int{0, 2}) || !reflect.DeepEqual(g.LowPos, []int{3, 1}) ||
		!reflect.DeepEqual(g.Low, []string{"s3", "s1"}) {
		t.Errorf("50%% split high %v %v low %v %v", g.High, g.HighPos, g.Low, g.LowPos)
	}
	tab, err := BuildOptionTable(e, g, "q1")
	if err != nil {
		t.Fatal(err)
	}
	if tab.High["A"] != 2 || tab.Low["B"] != 2 || len(tab.Low) != 1 {
		t.Errorf("q1 table at 50%%: high %v low %v", tab.High, tab.Low)
	}
}

// Groups that carry only IDs (built by hand, not by SplitGroups) resolve
// each ID to its last sitting; an unknown ID counts as unanswered.
func TestBuildOptionTableResolvesIDOnlyGroups(t *testing.T) {
	e := retakeExam(t)
	tab, err := BuildOptionTable(e, Groups{High: []string{"s2", "ghost"}, Low: []string{"s1", "s3"}}, "q1")
	if err != nil {
		t.Fatal(err)
	}
	if tab.High["A"] != 1 || tab.HighUnanswered != 1 || tab.Low["B"] != 2 || tab.LowUnanswered != 0 {
		t.Errorf("high %v (%d skipped) low %v (%d skipped)",
			tab.High, tab.HighUnanswered, tab.Low, tab.LowUnanswered)
	}
}

func TestSummarizeQuestionnairesCountsRetakes(t *testing.T) {
	e := &ExamResult{ExamID: "survey", Problems: []*item.Problem{
		{ID: "s1", Style: item.Questionnaire, Question: "Recommend?"},
	}}
	for _, sit := range [][2]string{{"a", "yes"}, {"a", "no"}, {"b", "yes"}} {
		e.Students = append(e.Students, StudentResult{StudentID: sit[0], Responses: []Response{
			{StudentID: sit[0], ProblemID: "s1", Option: sit[1], Answered: true},
		}})
	}
	sums := SummarizeQuestionnaires(e)
	want := []ResponseCount{{"yes", 2}, {"no", 1}}
	if len(sums) != 1 || sums[0].Answered != 3 || sums[0].Total != 3 || !reflect.DeepEqual(sums[0].Counts, want) {
		t.Errorf("summary = %+v, want 3 of 3 answered with %v", sums, want)
	}
}

func TestInstructionalSensitivityCountsRetakes(t *testing.T) {
	p, err := item.NewMultipleChoice("q1", "?", []string{"a", "b"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	sitting := func(id, opt string) StudentResult {
		return StudentResult{StudentID: id, Responses: []Response{choiceResponse(id, p, opt)}}
	}
	// a's retake is wrong; both sittings count, so P(pre) = 2/3.
	pre := &ExamResult{ExamID: "pre", Problems: []*item.Problem{p},
		Students: []StudentResult{sitting("a", "A"), sitting("a", "B"), sitting("b", "A")}}
	post := &ExamResult{ExamID: "post", Problems: []*item.Problem{p},
		Students: []StudentResult{sitting("a", "A"), sitting("b", "A")}}
	rep, err := InstructionalSensitivity(pre, post)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, "pre mean", rep.PreMean, 2.0/3, 1e-12)
	almost(t, "ISI", rep.Items["q1"], 1.0/3, 1e-12)
}

// Analyze's allocations do not grow with the class: the response matrix is
// a fixed number of slices however many sittings it holds.
func TestAnalyzeAllocsIndependentOfClassSize(t *testing.T) {
	allocs := func(students int) float64 {
		e := randomResult(rand.New(rand.NewSource(3)), students, true)
		return testing.AllocsPerRun(20, func() {
			if _, err := Analyze(e, Options{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(100), allocs(1000)
	if large > small+8 {
		t.Errorf("Analyze allocs: %v at 1000 sittings, %v at 100", large, small)
	}
}
