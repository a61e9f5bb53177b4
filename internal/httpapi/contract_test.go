package httpapi

// Contract suite: walks every /v1 route asserting status codes, error
// envelopes and method-not-allowed handling. This is
// the executable form of API.md — a route change that breaks the contract
// fails here before any client notices.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mineassess/internal/bank"
	"mineassess/internal/cognition"
	"mineassess/internal/delivery"
	"mineassess/internal/item"
	"mineassess/internal/scorm"
)

// fakeClock is a manually advanced clock.
type fakeClock struct{ t time.Time }

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2004, 3, 1, 9, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time          { return c.t }
func (c *fakeClock) Advance(d time.Duration) { c.t = c.t.Add(d) }

// examFixture stores 4 MC problems and an exam with a 10-minute limit.
func examFixture(t *testing.T, resumable bool) (*bank.Store, string) {
	t.Helper()
	s := bank.New()
	var ids []string
	for i := 0; i < 4; i++ {
		p, err := item.NewMultipleChoice(fmt.Sprintf("q%d", i+1), "?",
			[]string{"w", "x", "y", "z"}, 0) // correct A
		if err != nil {
			t.Fatal(err)
		}
		p.ConceptID = "c1"
		p.Level = cognition.Knowledge
		p.Resumable = resumable
		if err := s.AddProblem(p); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, p.ID)
	}
	rec := &bank.ExamRecord{ID: "exam1", Title: "Quiz", ProblemIDs: ids,
		Display: item.FixedOrder, TestTimeSeconds: 600}
	if err := s.AddExam(rec); err != nil {
		t.Fatal(err)
	}
	return s, rec.ID
}

// essayExamFixture: one essay + one MC problem, no time limit.
func essayExamFixture(t *testing.T) (*bank.Store, string) {
	t.Helper()
	s := bank.New()
	essay := &item.Problem{ID: "essay1", Style: item.Essay,
		Question: "Discuss assessment metadata.", Level: cognition.Evaluation}
	mc, err := item.NewMultipleChoice("mc1", "?", []string{"a", "b"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	mc.Level = cognition.Knowledge
	for _, p := range []*item.Problem{essay, mc} {
		if err := s.AddProblem(p); err != nil {
			t.Fatal(err)
		}
	}
	rec := &bank.ExamRecord{ID: "essayexam", Title: "Essay exam",
		ProblemIDs: []string{"essay1", "mc1"}, Display: item.FixedOrder}
	if err := s.AddExam(rec); err != nil {
		t.Fatal(err)
	}
	return s, rec.ID
}

// testServer wires the fixture bank into an HTTP test server.
func testServer(t *testing.T) (*httptest.Server, *fakeClock) {
	t.Helper()
	store, _ := examFixture(t, false)
	return serverOver(t, store)
}

func serverOver(t *testing.T, store bank.Storage) (*httptest.Server, *fakeClock) {
	t.Helper()
	clock := newFakeClock()
	eng := delivery.NewEngine(store, clock.Now, 8)
	srv := httptest.NewServer(NewServer(eng, store, Options{}))
	t.Cleanup(srv.Close)
	return srv, clock
}

// doJSON issues a request with an optional JSON body and decodes the
// response into out (which may be nil). It returns the status code and the
// raw body for envelope checks.
func doJSON(t *testing.T, method, url string, body, out any) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && len(raw) > 0 {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("decode %s %s: %v\n%s", method, url, err, raw)
		}
	}
	return resp.StatusCode, raw
}

// wantEnvelope asserts a response is the typed error envelope with the
// expected code at the code's canonical status.
func wantEnvelope(t *testing.T, status int, raw []byte, code Code) {
	t.Helper()
	if status != statusOf(code) {
		t.Errorf("status = %d, want %d for %s (body %s)", status, statusOf(code), code, raw)
	}
	var e Error
	if err := json.Unmarshal(raw, &e); err != nil {
		t.Fatalf("response is not an envelope: %s", raw)
	}
	if e.Code != code {
		t.Errorf("code = %q, want %q", e.Code, code)
	}
	if e.Message == "" {
		t.Error("envelope message empty")
	}
}

func startV1(t *testing.T, base, examID, student string) StartSessionResponse {
	t.Helper()
	var sr StartSessionResponse
	code, raw := doJSON(t, http.MethodPost, base+"/v1/exams/"+examID+"/sessions",
		StartSessionRequest{StudentID: student, Seed: 1}, &sr)
	if code != http.StatusOK || sr.SessionID == "" {
		t.Fatalf("start: code %d, body %s", code, raw)
	}
	return sr
}

// TestContractSessionLifecycle walks the happy path of every session route.
func TestContractSessionLifecycle(t *testing.T) {
	store, examID := examFixture(t, true)
	srv, clock := serverOver(t, store)
	sr := startV1(t, srv.URL, examID, "alice")
	if len(sr.Order) != 4 {
		t.Fatalf("order = %v", sr.Order)
	}

	clock.Advance(time.Minute)
	var act ActionResponse
	if code, _ := doJSON(t, http.MethodPost, srv.URL+"/v1/sessions/"+sr.SessionID+":answer",
		AnswerRequest{ProblemID: "q1", Response: "A"}, &act); code != http.StatusOK || act.Status != "recorded" {
		t.Fatalf("answer = %d %+v", code, act)
	}
	if code, _ := doJSON(t, http.MethodPost, srv.URL+"/v1/sessions/"+sr.SessionID+":pause", nil, &act); code != http.StatusOK || act.Status != "paused" {
		t.Fatalf("pause = %d %+v", code, act)
	}
	if code, _ := doJSON(t, http.MethodPost, srv.URL+"/v1/sessions/"+sr.SessionID+":resume", nil, &act); code != http.StatusOK || act.Status != "running" {
		t.Fatalf("resume = %d %+v", code, act)
	}

	var st delivery.Status
	if code, _ := doJSON(t, http.MethodGet, srv.URL+"/v1/sessions/"+sr.SessionID, nil, &st); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if st.Answered != 1 || st.StateName != "running" {
		t.Errorf("status = %+v", st)
	}

	var snaps []delivery.Snapshot
	if code, _ := doJSON(t, http.MethodGet, srv.URL+"/v1/sessions/"+sr.SessionID+"/monitor", nil, &snaps); code != http.StatusOK {
		t.Fatalf("monitor = %d", code)
	}
	if len(snaps) != 2 {
		t.Errorf("snapshots = %d, want 2", len(snaps))
	}

	var result map[string]any
	if code, _ := doJSON(t, http.MethodPost, srv.URL+"/v1/sessions/"+sr.SessionID+":finish", nil, &result); code != http.StatusOK {
		t.Fatalf("finish = %d", code)
	}
	if result["studentId"] != "alice" {
		t.Errorf("finish result = %v", result)
	}
}

// TestContractErrorTaxonomy asserts every error class carries its stable
// code at its canonical status.
func TestContractErrorTaxonomy(t *testing.T) {
	srv, _ := testServer(t)
	base := srv.URL

	// Unknown exam on start -> 404 EXAM_NOT_FOUND (not a generic 400).
	code, raw := doJSON(t, http.MethodPost, base+"/v1/exams/ghost/sessions",
		StartSessionRequest{StudentID: "x"}, nil)
	wantEnvelope(t, code, raw, CodeExamNotFound)

	// Unknown session -> 404 SESSION_NOT_FOUND.
	code, raw = doJSON(t, http.MethodGet, base+"/v1/sessions/ghost", nil, nil)
	wantEnvelope(t, code, raw, CodeSessionNotFound)

	// Monitor of a nonexistent session -> 404, not 200 [].
	code, raw = doJSON(t, http.MethodGet, base+"/v1/sessions/ghost/monitor", nil, nil)
	wantEnvelope(t, code, raw, CodeSessionNotFound)

	sr := startV1(t, base, "exam1", "alice")

	// Unknown problem -> 400 UNKNOWN_PROBLEM.
	code, raw = doJSON(t, http.MethodPost, base+"/v1/sessions/"+sr.SessionID+":answer",
		AnswerRequest{ProblemID: "ghost", Response: "A"}, nil)
	wantEnvelope(t, code, raw, CodeUnknownProblem)

	// Double answer -> 409 ALREADY_ANSWERED.
	doJSON(t, http.MethodPost, base+"/v1/sessions/"+sr.SessionID+":answer",
		AnswerRequest{ProblemID: "q1", Response: "A"}, nil)
	code, raw = doJSON(t, http.MethodPost, base+"/v1/sessions/"+sr.SessionID+":answer",
		AnswerRequest{ProblemID: "q1", Response: "B"}, nil)
	wantEnvelope(t, code, raw, CodeAlreadyAnswered)

	// Pause on a non-resumable exam -> 409 EXAM_NOT_RESUMABLE.
	code, raw = doJSON(t, http.MethodPost, base+"/v1/sessions/"+sr.SessionID+":pause", nil, nil)
	wantEnvelope(t, code, raw, CodeNotResumable)

	// Resume when not paused -> 409 SESSION_NOT_PAUSED.
	code, raw = doJSON(t, http.MethodPost, base+"/v1/sessions/"+sr.SessionID+":resume", nil, nil)
	wantEnvelope(t, code, raw, CodeSessionNotPaused)

	// Unknown colon verb -> 404 NOT_FOUND.
	code, raw = doJSON(t, http.MethodPost, base+"/v1/sessions/"+sr.SessionID+":dance", nil, nil)
	wantEnvelope(t, code, raw, CodeNotFound)

	// Malformed JSON -> 400 BAD_REQUEST.
	resp, err := http.Post(base+"/v1/exams/exam1/sessions", "application/json",
		strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	wantEnvelope(t, resp.StatusCode, raw, CodeBadRequest)

	// Unrouted path -> 404 NOT_FOUND envelope (no stdlib plain text).
	code, raw = doJSON(t, http.MethodGet, base+"/v1/nonsense", nil, nil)
	wantEnvelope(t, code, raw, CodeNotFound)

	// Unanswered/auto-graded/bad-credit grading errors.
	code, raw = doJSON(t, http.MethodPost, base+"/v1/grades",
		GradeRequest{SessionID: sr.SessionID, ProblemID: "q2", Credit: 0.5}, nil)
	wantEnvelope(t, code, raw, CodeNotAnswered)
	code, raw = doJSON(t, http.MethodPost, base+"/v1/grades",
		GradeRequest{SessionID: sr.SessionID, ProblemID: "q1", Credit: 0.5}, nil)
	wantEnvelope(t, code, raw, CodeAutoGraded)
	code, raw = doJSON(t, http.MethodPost, base+"/v1/grades",
		GradeRequest{SessionID: sr.SessionID, ProblemID: "q1", Credit: 2}, nil)
	wantEnvelope(t, code, raw, CodeInvalidCredit)
}

// TestContractMethodNotAllowed sweeps wrong-method requests across the
// route table: every one must be a 405 envelope with an Allow header.
func TestContractMethodNotAllowed(t *testing.T) {
	srv, _ := testServer(t)
	sr := startV1(t, srv.URL, "exam1", "alice")
	cases := []struct{ method, path string }{
		{http.MethodDelete, "/v1/exams/exam1/sessions"},
		{http.MethodPost, "/v1/sessions/" + sr.SessionID},
		{http.MethodGet, "/v1/sessions/" + sr.SessionID + ":answer"},
		{http.MethodPost, "/v1/sessions/" + sr.SessionID + "/monitor"},
		{http.MethodGet, "/v1/sessions/" + sr.SessionID + "/rte"},
		{http.MethodPut, "/v1/problems"},
		{http.MethodPost, "/v1/problems/q1"},
		{http.MethodPut, "/v1/exams"},
		{http.MethodGet, "/v1/exams:assemble"},
		{http.MethodPut, "/v1/exams/exam1"},
		{http.MethodPost, "/v1/exams/exam1/grades"},
		{http.MethodPost, "/v1/exams/exam1/results"},
		{http.MethodGet, "/v1/grades"},
		{http.MethodPost, "/v1/metrics"},
		{http.MethodPost, "/package/x.html"},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(tc.method, srv.URL+tc.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s = %d, want 405 (body %s)", tc.method, tc.path, resp.StatusCode, raw)
			continue
		}
		if resp.Header.Get("Allow") == "" {
			t.Errorf("%s %s: missing Allow header", tc.method, tc.path)
		}
		var e Error
		if err := json.Unmarshal(raw, &e); err != nil || e.Code != CodeMethodNotAllowed {
			t.Errorf("%s %s: body %s, want METHOD_NOT_ALLOWED envelope", tc.method, tc.path, raw)
		}
	}
}

// TestContractAdminFlow ports the seed-era admin-endpoint coverage: the
// session list, grading worklist and results export.
func TestContractAdminFlow(t *testing.T) {
	store, examID := essayExamFixture(t)
	srv, clock := serverOver(t, store)
	// Empty lists serialize as [], never null.
	for _, sub := range []string{"sessions", "grades"} {
		if _, raw := doJSON(t, http.MethodGet, srv.URL+"/v1/exams/"+examID+"/"+sub, nil, nil); strings.TrimSpace(string(raw)) != "[]" {
			t.Errorf("empty %s list = %q, want []", sub, raw)
		}
	}
	sr := startV1(t, srv.URL, examID, "carol")
	clock.Advance(time.Minute)
	if code, raw := doJSON(t, http.MethodPost, srv.URL+"/v1/sessions/"+sr.SessionID+":answer",
		AnswerRequest{ProblemID: "essay1", Response: "my essay"}, nil); code != http.StatusOK {
		t.Fatalf("answer: %d %s", code, raw)
	}

	var sums []delivery.Status
	if code, _ := doJSON(t, http.MethodGet, srv.URL+"/v1/exams/"+examID+"/sessions", nil, &sums); code != http.StatusOK {
		t.Fatal("sessions list failed")
	}
	if len(sums) != 1 || sums[0].StudentID != "carol" {
		t.Errorf("sums = %+v", sums)
	}
	var pending []delivery.PendingGrade
	if code, _ := doJSON(t, http.MethodGet, srv.URL+"/v1/exams/"+examID+"/grades", nil, &pending); code != http.StatusOK {
		t.Fatal("grades list failed")
	}
	if len(pending) != 1 || pending[0].ProblemID != "essay1" {
		t.Errorf("pending = %+v", pending)
	}
	if code, _ := doJSON(t, http.MethodPost, srv.URL+"/v1/grades",
		GradeRequest{SessionID: sr.SessionID, ProblemID: "essay1", Credit: 0.9}, nil); code != http.StatusOK {
		t.Error("grade post failed")
	}

	if code, _ := doJSON(t, http.MethodPost, srv.URL+"/v1/sessions/"+sr.SessionID+":finish", nil, nil); code != http.StatusOK {
		t.Fatal("finish failed")
	}
	var res struct {
		ExamID   string `json:"examId"`
		Students []struct {
			StudentID string `json:"studentId"`
		} `json:"students"`
	}
	if code, _ := doJSON(t, http.MethodGet, srv.URL+"/v1/exams/"+examID+"/results", nil, &res); code != http.StatusOK {
		t.Fatal("results failed")
	}
	if res.ExamID != examID || len(res.Students) != 1 || res.Students[0].StudentID != "carol" {
		t.Errorf("results = %+v", res)
	}
}

// TestContractRTEBridge keeps the SCORM RTE round trip working over the
// route SCO content uses.
func TestContractRTEBridge(t *testing.T) {
	srv, _ := testServer(t)
	sr := startV1(t, srv.URL, "exam1", "alice")
	base := srv.URL + "/v1/sessions/" + sr.SessionID + "/rte"
	var rr RTEResponse
	if code, _ := doJSON(t, http.MethodPost, base,
		RTERequest{Method: "getvalue", Element: "cmi.core.student_id"}, &rr); code != http.StatusOK {
		t.Fatalf("getvalue code != 200 at %s", base)
	}
	if rr.Result != "alice" || rr.LastError != "0" {
		t.Errorf("getvalue = %+v", rr)
	}
	if code, _ := doJSON(t, http.MethodPost, base,
		RTERequest{Method: "setvalue", Element: "cmi.core.lesson_status", Value: "incomplete"}, &rr); code != http.StatusOK || rr.Result != "true" {
		t.Errorf("setvalue = %d %+v", code, rr)
	}
	if code, _ := doJSON(t, http.MethodPost, base, RTERequest{Method: "commit"}, &rr); code != http.StatusOK || rr.Result != "true" {
		t.Errorf("commit = %d %+v", code, rr)
	}
	// Read-only violation surfaces the SCORM error code.
	doJSON(t, http.MethodPost, base,
		RTERequest{Method: "setvalue", Element: "cmi.core.student_id", Value: "bob"}, &rr)
	if rr.Result != "false" || rr.LastError != "403" {
		t.Errorf("read-only setvalue = %+v", rr)
	}
	code, raw := doJSON(t, http.MethodPost, base, RTERequest{Method: "explode"}, nil)
	wantEnvelope(t, code, raw, CodeBadRequest)
	code, raw = doJSON(t, http.MethodPost, srv.URL+"/v1/sessions/ghost/rte", RTERequest{Method: "commit"}, nil)
	wantEnvelope(t, code, raw, CodeSessionNotFound)
}

// TestContractPackageMount checks mounted SCORM content serving and the
// mime-type resolution (stdlib table + pinned overrides).
func TestContractPackageMount(t *testing.T) {
	store, _ := examFixture(t, false)
	eng := delivery.NewEngine(store, newFakeClock().Now, 0)
	server := NewServer(eng, store, Options{})
	srv := httptest.NewServer(server)
	t.Cleanup(srv.Close)

	// Without a mounted package: 404 envelope.
	code, raw := doJSON(t, http.MethodGet, srv.URL+"/package/imsmanifest.xml", nil, nil)
	wantEnvelope(t, code, raw, CodeNotFound)

	rec, err := store.Exam("exam1")
	if err != nil {
		t.Fatal(err)
	}
	problems, err := store.Problems(rec.ProblemIDs)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := scorm.BuildPackage(rec, problems)
	if err != nil {
		t.Fatal(err)
	}
	// Exercise types beyond what BuildPackage emits, including ones the old
	// hard-coded table missed and one only the stdlib table knows.
	pkg.Files["assets/logo.svg"] = []byte("<svg/>")
	pkg.Files["assets/meta.json"] = []byte("{}")
	pkg.Files["assets/font.woff2"] = []byte{0}
	pkg.Files["assets/pic.png"] = []byte{0}
	server.MountPackage(pkg)

	wantTypes := map[string]string{
		"content/problem_001.html": "text/html; charset=utf-8",
		"imsmanifest.xml":          "application/xml",
		"assets/logo.svg":          "image/svg+xml",
		"assets/meta.json":         "application/json",
		"assets/font.woff2":        "font/woff2",
		"assets/pic.png":           "image/png",
	}
	for file, want := range wantTypes {
		resp, err := http.Get(srv.URL + "/package/" + file)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s = %d, want 200", file, resp.StatusCode)
			continue
		}
		if ct := resp.Header.Get("Content-Type"); ct != want {
			t.Errorf("%s content type = %q, want %q", file, ct, want)
		}
		if file == "content/problem_001.html" && !strings.Contains(string(body), "Question 1") {
			t.Errorf("page body wrong:\n%.120s", body)
		}
	}

	code, raw = doJSON(t, http.MethodGet, srv.URL+"/package/ghost.html", nil, nil)
	wantEnvelope(t, code, raw, CodeNotFound)
}
