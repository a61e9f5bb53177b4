package analysis

import (
	"fmt"
)

// QuestionReport is the complete per-question analysis: the §4.1.1 number
// representation (PH, PL, D, P), the §4.1.2 signal representation (option
// table, rules, statuses, light signal), and the distractor profile.
type QuestionReport struct {
	// Number is the question's 1-based position in the exam ("No" in the
	// paper's number-representation table).
	Number    int
	ProblemID string

	PH float64 // higher-group proportion correct
	PL float64 // lower-group proportion correct
	D  float64 // Item Discrimination Index, PH-PL
	P  float64 // Item Difficulty Index, (PH+PL)/2

	// OverallP is the simple whole-class Item Difficulty Index P = R/N of
	// §3.3 III, computed over all students (not just the groups).
	OverallP float64

	Table       *OptionTable
	Rules       [4]RuleResult
	Statuses    []Status
	Signal      Signal
	Distractors []Distractor
}

// MatchedRules returns the IDs of the rules that fired, in order.
func (q *QuestionReport) MatchedRules() []RuleID {
	var out []RuleID
	for _, r := range q.Rules {
		if r.Matched {
			out = append(out, r.Rule)
		}
	}
	return out
}

// ExamAnalysis bundles the per-question reports with the group split used to
// produce them.
type ExamAnalysis struct {
	ExamID    string
	Groups    Groups
	Questions []*QuestionReport
}

// Question returns the report for the given problem ID, or nil.
func (a *ExamAnalysis) Question(problemID string) *QuestionReport {
	for _, q := range a.Questions {
		if q.ProblemID == problemID {
			return q
		}
	}
	return nil
}

// CountBySignal tallies questions per signal colour.
func (a *ExamAnalysis) CountBySignal() map[Signal]int {
	out := make(map[Signal]int, 3)
	for _, q := range a.Questions {
		out[q.Signal]++
	}
	return out
}

// Options configures Analyze.
type Options struct {
	// GroupFraction is the upper/lower split fraction; zero means the
	// paper's default of 25%.
	GroupFraction float64
}

// Analyze runs the full single-question analysis model over an exam result.
// Problems that are not choice-style (no option columns) still receive
// number-representation statistics; their option-dependent fields are left
// zero and no rules are evaluated.
func Analyze(e *ExamResult, opts Options) (*ExamAnalysis, error) {
	if err := e.Validate(); err != nil {
		return nil, err
	}
	fraction := opts.GroupFraction
	if fraction == 0 {
		fraction = DefaultGroupFraction
	}
	m := newMatrix(e)
	groups, err := m.split(fraction)
	if err != nil {
		return nil, err
	}
	out := &ExamAnalysis{ExamID: e.ExamID, Groups: groups}
	for i, p := range e.Problems {
		q := &QuestionReport{
			Number:    i + 1,
			ProblemID: p.ID,
		}
		c := m.column(i)
		q.OverallP = overallDifficulty(c)

		if p.CorrectKey() != "" {
			table, err := buildOptionTable(p, c, groups.HighPos, groups.LowPos)
			if err != nil {
				return nil, fmt.Errorf("analysis: question %d: %w", i+1, err)
			}
			q.Table = table
			q.PH = table.PH()
			q.PL = table.PL()
			q.D = table.Discrimination()
			q.P = table.Difficulty()
			q.Rules = EvaluateRules(table)
			q.Statuses = StatusesFor(q.Rules)
			q.Signal = EvaluateSignal(q.D, q.Rules)
			q.Distractors = AnalyzeDistraction(table)
		} else {
			// Non-choice problems: derive PH/PL from credit directly.
			q.PH = groupProportion(c, groups.HighPos)
			q.PL = groupProportion(c, groups.LowPos)
			q.D = q.PH - q.PL
			q.P = (q.PH + q.PL) / 2
			q.Signal = EvaluateSignal(q.D, q.Rules)
		}
		out.Questions = append(out.Questions, q)
	}
	return out, nil
}

// overallDifficulty is §3.3 III: P = R/N over every sitting of the class.
func overallDifficulty(c column) float64 {
	if len(c.cells) == 0 {
		return 0
	}
	right := 0
	for s := range c.cells {
		if r := c.at(s); r != nil && r.Correct() {
			right++
		}
	}
	return float64(right) / float64(len(c.cells))
}

func groupProportion(c column, group []int) float64 {
	if len(group) == 0 {
		return 0
	}
	right := 0
	for _, s := range group {
		if r := c.at(s); r != nil && r.Correct() {
			right++
		}
	}
	return float64(right) / float64(len(group))
}
