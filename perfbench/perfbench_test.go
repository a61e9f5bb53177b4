package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"mineassess/pkg/api"
)

// transcript drives a fixed script against a fresh system (traced when rec
// is non-nil) and returns what the client saw plus the WAL's op sequence.
func transcript(t *testing.T, rec *recorder) (seen, walOps []string) {
	t.Helper()
	dir := t.TempDir()
	sys, err := boot(filepath.Join(dir, "wal"), rec)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := sys.close(); err != nil {
			t.Error(err)
		}
	}()
	tr := newTransport(1)
	defer tr.CloseIdleConnections()
	if err := sys.seed(7, 20, tr); err != nil {
		t.Fatal(err)
	}
	w := newWorker(sys, tr, 0, 7, time.Now())
	c := w.c
	for k := 0; k < 3; k++ {
		l := newLearner(7, 0, k)
		var start *api.StartAdaptiveSessionResponse
		w.call(routeCATStart, func() (err error) {
			start, err = c.StartAdaptiveSession(api.StartAdaptiveSessionRequest{
				ExamID: catExamID, StudentID: fmt.Sprint("s", k), Seed: int64(k),
				AdaptiveConfig: api.AdaptiveConfig{TargetSE: catTargetSE, MaxItems: catMaxItems},
			})
			return err
		})
		if start == nil {
			t.Fatalf("start: %v", w.t.failures)
		}
		for next := start.Next; next != nil; {
			var prog *api.AdaptiveProgress
			w.call(routeCATRespond, func() (err error) {
				prog, err = c.AdaptiveRespond(start.SessionID, next.ProblemID, l.answer(sys.banks[wlAdaptive].params[next.ProblemID]))
				return err
			})
			if prog == nil {
				t.Fatalf("respond: %v", w.t.failures)
			}
			seen = append(seen, fmt.Sprintf("%s %s theta=%.6f se=%.6f done=%v", start.SessionID, next.ProblemID, prog.Theta, prog.SE, prog.Done))
			if prog.Done {
				break
			}
			next = prog.Next
		}
		out, err := c.FinishAdaptiveSession(start.SessionID)
		if err != nil {
			t.Fatal(err)
		}
		seen = append(seen, fmt.Sprintf("%s stop=%s items=%d", out.SessionID, out.StopReason, len(out.Administered)))
	}
	cat := sys.banks[wlAdaptive]
	p := *cat.problems[cat.order[0]]
	p.Question = "revised"
	if err := c.UpdateProblem(&p); err != nil {
		t.Fatal(err)
	}
	got, err := c.Problem(p.ID)
	if err != nil {
		t.Fatal(err)
	}
	seen = append(seen, fmt.Sprintf("%s %q key %s", got.ID, got.Question, got.Answer))

	f, err := os.Open(filepath.Join(dir, "wal", "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		var r struct{ Op string }
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("WAL record %q: %v", sc.Text(), err)
		}
		walOps = append(walOps, r.Op)
	}
	return seen, walOps
}

func TestDecoratedServerMatchesUndecorated(t *testing.T) {
	plainSeen, plainWAL := transcript(t, nil)
	rec := newRecorder()
	tracedSeen, tracedWAL := transcript(t, rec)
	if !slices.Equal(plainSeen, tracedSeen) {
		t.Errorf("responses differ:\nplain  %q\ntraced %q", plainSeen, tracedSeen)
	}
	if !slices.Equal(plainWAL, tracedWAL) || len(plainWAL) == 0 {
		t.Errorf("WAL op sequences differ:\nplain  %q\ntraced %q", plainWAL, tracedWAL)
	}

	// The engines and handlers must reach the journal through the
	// decorator's *Ctx forms; on a timed route the serve span is the
	// parent (authoring routes are not timed).
	serves := map[uint64]bool{}
	for _, s := range rec.snapshot() {
		if s.Name == spanServe {
			serves[s.ID] = true
		}
	}
	ctxCalls := map[string]int{}
	for _, s := range rec.snapshot() {
		if s.Name == spanBankWrite && strings.HasSuffix(s.Op, "Ctx") {
			ctxCalls[s.Op]++
			if s.Op == "PutAdaptiveSessionCtx" && !serves[s.Parent] {
				t.Errorf("%s span %d has parent %d, not a serve span", s.Op, s.ID, s.Parent)
			}
		}
	}
	for _, op := range []string{"AddProblemCtx", "PutAdaptiveSessionCtx"} {
		if ctxCalls[op] == 0 {
			t.Errorf("no %s call reached the decorator (calls: %v)", op, ctxCalls)
		}
	}
}

func TestScriptsDeterministic(t *testing.T) {
	order := []string{"q1", "q2", "q3", "q4", "q5", "q6", "q7", "q8"}
	params := map[string]itemParams{}
	for i, id := range order {
		params[id] = itemParams{A: 1.2, B: float64(i-4) / 2}
	}
	differs := false
	for k := 0; k < 20; k++ {
		a, ca := fixedScript(42, 1, k, order, params)
		b, cb := fixedScript(42, 1, k, order, params)
		if !slices.Equal(a, b) || ca != cb {
			t.Fatalf("sitting %d: %v (%d) then %v (%d)", k, a, ca, b, cb)
		}
		n := 0
		for _, r := range a {
			if r == "A" {
				n++
			}
		}
		if n != ca {
			t.Fatalf("sitting %d: tally %d, %d key answers in %v", k, ca, n, a)
		}
		if other, _ := fixedScript(43, 1, k, order, params); !slices.Equal(a, other) {
			differs = true
		}
		if newLearner(42, 1, k).Theta != newLearner(42, 1, k).Theta {
			t.Fatalf("sitting %d: learner ability not reproducible", k)
		}
	}
	if !differs {
		t.Error("seeds 42 and 43 gave identical scripts")
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestMetricCatalogue checks every metric name and unit, and that
// BENCHMARK.json lists exactly the catalogue's metrics and workloads.
func TestMetricCatalogue(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range slices.Concat(endToEnd, perLayer) {
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %q unit %q: bad name or unit", m.Name, m.Unit)
		}
		if seen[m.Name] {
			t.Errorf("metric %q listed twice", m.Name)
		}
		seen[m.Name] = true
	}

	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloads) {
		t.Errorf("BENCHMARK.json workloads %v, catalogue %v", names, workloads)
	}
	if len(bj.EndToEnd) != len(endToEnd) || len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, catalogue %d+%d",
			len(bj.EndToEnd), len(bj.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range endToEnd {
		got := bj.EndToEnd[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better || got.Bound != m.Bound {
			t.Errorf("end_to_end[%d] = %+v, catalogue %+v", i, got, m)
		}
	}
	for i, m := range perLayer {
		got := bj.PerLayer[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("per_layer[%d] = %+v, catalogue %+v", i, got, m)
		}
	}
}

// TestRunEveryWorkload runs each workload briefly, traced, and checks the
// result line: correct, and exactly the catalogue's metrics.
func TestRunEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the system for several seconds")
	}
	for _, wl := range workloads {
		t.Run(wl, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				var out bytes.Buffer
				// Long enough for review cycles to finish inside the window
				// under the race detector.
				b := &bench{workload: wl, seed: 3, window: 3 * time.Second, out: t.TempDir()}
				if err := b.run(traced, &out); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res resultLine
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("traced=%v: correct=%v attempted=%d failed=%d\n%s", traced, res.Correct, res.Attempted, res.Failed, out.String())
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("traced=%v: %d metrics, want %d", traced, len(res.Metrics), len(want))
				}
				for _, m := range want {
					if v, ok := res.Metrics[m.Name]; !ok || v.Unit != m.Unit {
						t.Errorf("traced=%v: metric %s = %+v", traced, m.Name, v)
					}
				}
				for _, m := range endToEnd {
					if v := res.Metrics[m.Name]; !traced && v.Value <= 0 {
						t.Errorf("%s = %v, want > 0", m.Name, v.Value)
					}
				}
			}
		})
	}
}

func TestAttributeJoinsSpans(t *testing.T) {
	spans := []span{
		{ID: 1, Name: spanClient, Op: routeFixedStart, Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: spanServe, Op: routeFixedStart, Start: 10, End: 90},
		{ID: 3, Name: spanBankRead, Op: "Exam", Start: 20, End: 30},             // unparented, inside 2
		{ID: 4, Parent: 2, Name: spanBankWrite, Op: "PutX", Start: 40, End: 60}, // parented
		{ID: 5, Name: spanClient, Op: routeFixedAnswer, Start: 200, End: 260},
		{ID: 6, Parent: 5, Name: spanServe, Op: routeFixedAnswer, Start: 210, End: 250},
		{ID: 7, Name: spanBankRead, Op: "Exam", Start: 300, End: 310}, // outside every request
	}
	a := attribute(spans, spanClient)
	if a.total != 160 || a.sumWire != 20+20 || a.sumRead != 10 || a.sumWrite != 20 || a.sumSelf != 50+40 {
		t.Errorf("total %d wire %d read %d write %d self %d", a.total, a.sumWire, a.sumRead, a.sumWrite, a.sumSelf)
	}
	if a.bankCalls != 3 || a.bankAttributed != 2 {
		t.Errorf("bank calls %d, attributed %d", a.bankCalls, a.bankAttributed)
	}
	if got := a.selfByRoute[routeFixedStart]; !slices.Equal(got, []int64{50}) {
		t.Errorf("self of fixed.start = %v", got)
	}
}

func TestQuietestWidensToMinOps(t *testing.T) {
	steal := []int64{0, 3, 0, 1, 5, 1}
	ops := []int{10, 10, 10, 10, 10, 10}
	for _, c := range []struct {
		minOps int
		want   []int
	}{
		{1, []int{0, 2}},
		{20, []int{0, 2}},
		{21, []int{0, 2, 3, 5}},
		{60, []int{0, 1, 2, 3, 4, 5}},
		{1000, []int{0, 1, 2, 3, 4, 5}}, // never enough: every interval
	} {
		if got := quietest(steal, ops, c.minOps); !slices.Equal(got, c.want) {
			t.Errorf("quietest(minOps %d) = %v, want %v", c.minOps, got, c.want)
		}
	}
}
