package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"mineassess/internal/bank"
	"mineassess/internal/catdelivery"
	"mineassess/internal/cognition"
	"mineassess/internal/delivery"
	"mineassess/internal/events"
	"mineassess/internal/httpapi"
	"mineassess/internal/item"
	"mineassess/internal/livestats"
	"mineassess/internal/obs"
	"mineassess/internal/simulate"
	"mineassess/pkg/client"
)

// The system under test, composed in process from the constructors
// cmd/examserver uses, with examserver's defaults: sharded bank behind a
// group-commit WAL, sharded delivery engine, adaptive engine, live event bus
// with streaming statistics, no rate limiting, no access log.
type system struct {
	dir     string
	reg     *obs.Registry
	journal *bank.Journal
	store   bank.Storage
	engine  *delivery.Engine
	bus     *events.Bus
	live    *livestats.Aggregator
	srv     *http.Server
	served  chan error
	url     string
	rec     *recorder
	banks   map[string]*seededBank // by workload
}

// examserver's defaults.
const (
	monitorCap   = 64
	readTimeout  = 10 * time.Second
	writeTimeout = 10 * time.Second
	syncPolicy   = bank.SyncGroup
)

// boot starts a fresh system journaling under dir. A non-nil rec turns on
// the traced composition: the bank decorator and the ServeHTTP wrapper.
func boot(dir string, rec *recorder) (*system, error) {
	s := &system{dir: dir, reg: obs.NewRegistry(), rec: rec}
	j, err := bank.OpenJournalWith(dir, bank.NewSharded(bank.DefaultShards), bank.JournalOptions{Sync: syncPolicy, Obs: s.reg})
	if err != nil {
		return nil, fmt.Errorf("open journal: %w", err)
	}
	s.journal, s.store = j, j
	if rec != nil {
		s.store = &tracedStorage{Journal: j, rec: rec}
	}
	s.engine = delivery.NewShardedEngine(s.store, nil, monitorCap, delivery.DefaultSessionShards)
	cat, err := catdelivery.NewEngine(s.store, nil, monitorCap)
	if err != nil {
		j.Close()
		return nil, fmt.Errorf("adaptive engine: %w", err)
	}
	s.bus = events.NewBus(events.Options{Ring: events.DefaultRing, Obs: s.reg})
	s.live = livestats.NewWith(s.bus, s.reg)
	s.engine.SetEventBus(s.bus)
	cat.SetEventBus(s.bus)
	var h http.Handler = httpapi.NewServer(s.engine, s.store, httpapi.Options{
		Obs:       s.reg,
		Adaptive:  cat,
		Events:    s.bus,
		LiveStats: s.live,
	})
	if rec != nil {
		h = tracedHandler{next: h, rec: rec}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.closeStores()
		return nil, err
	}
	s.srv = &http.Server{Handler: h, ReadTimeout: readTimeout, WriteTimeout: writeTimeout}
	s.served = make(chan error, 1)
	go func() { s.served <- s.srv.Serve(ln) }()
	s.url = "http://" + ln.Addr().String()
	return s, nil
}

// close stops the server, waits for it, flushes and removes the journal.
func (s *system) close() error {
	s.bus.DetachSubscribers()
	err := s.srv.Close()
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	err = errors.Join(err, s.closeStores())
	return errors.Join(err, os.RemoveAll(s.dir))
}

func (s *system) closeStores() error {
	s.bus.Close()
	s.live.Close()
	return s.journal.Close()
}

// newTransport returns the HTTP transport every client of one run shares:
// at most conns connections to the server.
func newTransport(conns int) *http.Transport {
	t := client.TunedTransport(conns)
	t.MaxConnsPerHost = conns
	return t
}

// --- seeding ---

// Item shapes. Every item is four-option multiple choice keyed "A".
const (
	fixedItems   = 10
	catPoolItems = 60
	reviewItems  = 10
	catTargetSE  = 0.4
	catMaxItems  = 12
	reviewGroups = 5 // concepts the review exam covers
)

const (
	fixedExamID  = "fixed"
	catExamID    = "cat"
	reviewExamID = "review"
)

// seededBank is what set-up leaves behind: the exam's authored problem
// order, the item parameters learners answer under, and, for review, the
// cohort's per-item tallies.
type seededBank struct {
	examID   string
	order    []string
	problems map[string]*item.Problem
	params   map[string]itemParams
	cohort   int
	correct  map[string]int // review: correct answers per problem
}

// seed authors every workload's exam through the /v1 API and seats the
// review cohort through the delivery engine. Every workload sets up the
// same bank, so setup_s measures the same work on each.
func (s *system) seed(seed int64, cohort int, rt http.RoundTripper) error {
	c := client.New(s.url, client.WithTransport(rt))
	fixed, err := authorExam(c, fixedExamID, fixedItems, 1.2, 1.5, false, false)
	if err != nil {
		return err
	}
	cat, err := authorExam(c, catExamID, catPoolItems, 1.6, 3, true, false)
	if err != nil {
		return err
	}
	review, err := authorExam(c, reviewExamID, reviewItems, 1.2, 1.5, false, true)
	if err != nil {
		return err
	}
	s.banks = map[string]*seededBank{wlFixedLive: fixed, wlAdaptive: cat, wlReview: review}
	return s.seatCohort(review, seed, cohort)
}

// authorExam creates n problems and an exam over them. Difficulties spread
// evenly over [-spread, spread]; calibrated exams carry the item
// parameters, tagged ones a concept and a cognition level per problem.
func authorExam(c *client.Client, examID string, n int, a, spread float64, calibrated, tagged bool) (*seededBank, error) {
	b := &seededBank{examID: examID, problems: map[string]*item.Problem{}, params: map[string]itemParams{}}
	var irt map[string]simulate.IRTParams
	if calibrated {
		irt = map[string]simulate.IRTParams{}
	}
	levels := cognition.Levels()
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("%s-q%03d", examID, i+1)
		p, err := item.NewMultipleChoice(id, fmt.Sprintf("Question %d of %s", i+1, examID),
			[]string{"alpha", "beta", "gamma", "delta"}, 0)
		if err != nil {
			return nil, err
		}
		if tagged {
			p.ConceptID = fmt.Sprintf("c%d", i%reviewGroups+1)
			p.Level = levels[i%len(levels)]
		}
		if err := c.CreateProblem(p); err != nil {
			return nil, fmt.Errorf("create problem %s: %w", id, err)
		}
		par := itemParams{A: a, B: -spread + 2*spread*float64(i)/float64(max(n-1, 1))}
		b.order = append(b.order, id)
		b.problems[id] = p
		b.params[id] = par
		if calibrated {
			irt[id] = simulate.IRTParams{A: par.A, B: par.B}
		}
	}
	rec := &bank.ExamRecord{ID: examID, Title: "Benchmark exam " + examID, ProblemIDs: b.order, ItemParams: irt}
	if err := c.CreateExam(rec); err != nil {
		return nil, fmt.Errorf("create exam %s: %w", examID, err)
	}
	return b, nil
}

// cohortWorker is the learner index the review cohort's scripts use; the
// measured workers count from 0.
const cohortWorker = 1 << 20

// seatCohort runs the review cohort's fixed sittings straight through the
// delivery engine and tallies the correct answers per problem.
func (s *system) seatCohort(b *seededBank, seed int64, cohort int) error {
	b.cohort = cohort
	b.correct = map[string]int{}
	for k := 0; k < cohort; k++ {
		responses, _ := fixedScript(seed, cohortWorker, k, b.order, b.params)
		sess, err := s.engine.Start(b.examID, fmt.Sprintf("student-%05d", k), int64(k))
		if err != nil {
			return fmt.Errorf("cohort start: %w", err)
		}
		for i, pid := range b.order {
			if err := s.engine.Answer(sess.ID, pid, responses[i]); err != nil {
				return fmt.Errorf("cohort answer: %w", err)
			}
			if responses[i] == "A" {
				b.correct[pid]++
			}
		}
		if _, err := s.engine.Finish(sess.ID); err != nil {
			return fmt.Errorf("cohort finish: %w", err)
		}
	}
	return nil
}
