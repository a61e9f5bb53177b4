package analysis

import (
	"slices"
	"strings"
)

// matrix is an exam result's response matrix, indexed once per call. Rows are
// problem positions in e.Problems and columns are sitting positions in
// e.Students, so a student who sat the exam twice (a retake) fills two
// columns and each sitting counts once.
type matrix struct {
	e *ExamResult
	// cells holds one column per problem, back to back: see column.
	cells []int32
	// scores is each sitting's weighted score, as StudentResult.Score
	// computes it.
	scores []float64
	// problem maps a problem ID to its position.
	problem map[string]int
}

// column is one problem's responses across the sittings: cells[s] is the
// index in e.Students[s].Responses of sitting s's response (the last one if
// it answered the problem twice), or -1 when it has none.
type column struct {
	e     *ExamResult
	cells []int32
}

// newMatrix indexes e in one pass over its responses.
func newMatrix(e *ExamResult) *matrix {
	n := len(e.Students)
	m := &matrix{
		e:       e,
		cells:   make([]int32, len(e.Problems)*n),
		scores:  make([]float64, n),
		problem: make(map[string]int, len(e.Problems)),
	}
	weights := make([]float64, len(e.Problems))
	for p, prob := range e.Problems {
		m.problem[prob.ID] = p
		weights[p] = prob.Weight()
		if weights[p] <= 0 {
			weights[p] = 1
		}
	}
	for i := range m.cells {
		m.cells[i] = -1
	}
	for s := range e.Students {
		rs := e.Students[s].Responses
		total := 0.0
		for i := range rs {
			// Problems without a recorded weight count 1, as in Score.
			w := 1.0
			if p, ok := m.problem[rs[i].ProblemID]; ok {
				m.cells[p*n+s] = int32(i)
				w = weights[p]
			}
			total += rs[i].Credit * w
		}
		m.scores[s] = total
	}
	return m
}

// column returns the responses to the problem at position p.
func (m *matrix) column(p int) column {
	n := len(m.scores)
	return column{e: m.e, cells: m.cells[p*n : (p+1)*n]}
}

// problemColumn indexes a single problem's responses, for callers that
// need only one.
func problemColumn(e *ExamResult, problemID string) column {
	c := column{e: e, cells: make([]int32, len(e.Students))}
	for s := range e.Students {
		c.cells[s] = -1
		for i := range e.Students[s].Responses {
			if e.Students[s].Responses[i].ProblemID == problemID {
				c.cells[s] = int32(i)
			}
		}
	}
	return c
}

// at returns sitting s's response, or nil when it has none (or s < 0, an
// unresolved group member).
func (c column) at(s int) *Response {
	if s < 0 || c.cells[s] < 0 {
		return nil
	}
	return &c.e.Students[s].Responses[c.cells[s]]
}

// rank orders the sitting positions by score descending, ties broken by
// student ID ascending and then by position, so a retake scoring the same as
// the first sitting follows it.
func (m *matrix) rank() []int {
	order := make([]int, len(m.scores))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		if sa, sb := m.scores[a], m.scores[b]; sa != sb {
			if sa > sb {
				return -1
			}
			return 1
		}
		if c := strings.Compare(m.e.Students[a].StudentID, m.e.Students[b].StudentID); c != 0 {
			return c
		}
		return a - b
	})
	return order
}
