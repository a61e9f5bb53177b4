// Command assessctl is the authoring and analysis CLI of the assessment
// system: it seeds a demo problem bank, searches it, simulates exam
// sittings, runs the paper's analysis model, and exports SCORM/QTI.
//
// Usage:
//
//	assessctl seed        -bank bank.json [-problems 60] [-concepts 5]
//	assessctl search      -bank bank.json [-keyword k] [-style s] [-level l]
//	assessctl analyze     -bank bank.json -exam final [-class 44] [-seed 7]
//	assessctl calibrate   -bank bank.json -exam final [-results result.json]
//	                      [-a 1.5] [-min 10] [-init]
//	assessctl coverage    -bank bank.json -exam final [-concepts 5]
//	assessctl export-scorm -bank bank.json -exam final -out exam.zip
//	assessctl export-qti   -bank bank.json -exam final -out exam.xml
//	assessctl events tail  -addr http://host:8080 [-exam final] [-last SEQ]
//	assessctl metrics      -addr http://host:8080 [-subsystems]
//	assessctl traces       -ops http://host:6060 [-id TRACEID] [-recent]
package main

import (
	"flag"
	"fmt"
	"os"

	"mineassess/internal/adaptive"
	"mineassess/internal/analysis"
	"mineassess/internal/authoring"
	"mineassess/internal/bank"
	"mineassess/internal/cognition"
	"mineassess/internal/core"
	"mineassess/internal/item"
	"mineassess/internal/report"
	"mineassess/internal/simulate"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "assessctl:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("missing subcommand (seed, search, analyze, coverage, export-scorm, export-qti)")
	}
	switch args[0] {
	case "seed":
		return cmdSeed(args[1:])
	case "search":
		return cmdSearch(args[1:])
	case "analyze":
		return cmdAnalyze(args[1:])
	case "coverage":
		return cmdCoverage(args[1:])
	case "export-scorm":
		return cmdExportSCORM(args[1:])
	case "export-qti":
		return cmdExportQTI(args[1:])
	case "feedback":
		return cmdFeedback(args[1:])
	case "analyze-file":
		return cmdAnalyzeFile(args[1:])
	case "history":
		return cmdHistory(args[1:])
	case "calibrate":
		return cmdCalibrate(args[1:])
	case "stats":
		return cmdStats(args[1:])
	case "preview":
		return cmdPreview(args[1:])
	case "events":
		return cmdEvents(args[1:])
	case "metrics":
		return cmdMetrics(args[1:])
	case "traces":
		return cmdTraces(args[1:])
	case "lint":
		return cmdLint(args[1:])
	case "version":
		fmt.Println("assessctl", core.Version)
		return nil
	case "help":
		fmt.Println("subcommands: seed, search, analyze, analyze-file, calibrate, coverage, history, feedback, stats, preview, events, metrics, traces, lint, export-scorm, export-qti, version")
		return nil
	default:
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

// simulateAndAnalyze is shared by the analyze/feedback/stats subcommands.
func simulateAndAnalyze(bankPath, examID string, class int, seed int64, fraction float64) (*core.Pipeline, *analysis.ExamResult, *analysis.ExamAnalysis, error) {
	pipe, err := core.Open(bankPath)
	if err != nil {
		return nil, nil, nil, err
	}
	res, err := pipe.RunSimulated(examID, core.SimulationConfig{
		Class: simulate.PopulationConfig{N: class, Mean: 0, SD: 1, Seed: seed},
		Seed:  seed + 1,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	a, err := pipe.Analyze(res, analysis.Options{GroupFraction: fraction})
	if err != nil {
		return nil, nil, nil, err
	}
	return pipe, res, a, nil
}

// cmdAnalyzeFile analyzes a saved sitting (a JSON file produced by the
// delivery server's GET /v1/exams/{id}/results endpoint or
// analysis.SaveResult)
// without touching a bank.
func cmdAnalyzeFile(args []string) error {
	fs := flag.NewFlagSet("analyze-file", flag.ContinueOnError)
	path := fs.String("result", "result.json", "saved exam result JSON")
	fraction := fs.Float64("fraction", analysis.DefaultGroupFraction, "group fraction")
	if err := fs.Parse(args); err != nil {
		return err
	}
	res, err := analysis.LoadResult(*path)
	if err != nil {
		return err
	}
	a, err := analysis.Analyze(res, analysis.Options{GroupFraction: *fraction})
	if err != nil {
		return err
	}
	fmt.Print(report.NumberTable(a))
	fmt.Println()
	fmt.Print(report.SignalBoard(a))
	fmt.Print(report.TimeSufficiency(analysis.AnalyzeTime(res)))
	return nil
}

// cmdHistory administers the exam several times over different simulated
// classes and aggregates each question's indices across administrations —
// the repository-reuse view of item quality.
func cmdHistory(args []string) error {
	fs := flag.NewFlagSet("history", flag.ContinueOnError)
	bankPath := fs.String("bank", "bank.json", "bank file")
	examID := fs.String("exam", "final", "exam ID")
	runs := fs.Int("runs", 3, "number of simulated administrations")
	class := fs.Int("class", 60, "class size per administration")
	seed := fs.Int64("seed", 7, "base seed")
	flagged := fs.Bool("flagged", false, "show only yellow/red items")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *runs < 1 {
		return fmt.Errorf("runs must be positive, got %d", *runs)
	}
	pipe, err := core.Open(*bankPath)
	if err != nil {
		return err
	}
	var analyses []*analysis.ExamAnalysis
	for i := 0; i < *runs; i++ {
		res, err := pipe.RunSimulated(*examID, core.SimulationConfig{
			Class: simulate.PopulationConfig{N: *class, Mean: 0, SD: 1,
				Seed: *seed + int64(i)*101},
			Seed: *seed + int64(i)*103 + 1,
		})
		if err != nil {
			return err
		}
		a, err := pipe.Analyze(res, analysis.Options{})
		if err != nil {
			return err
		}
		analyses = append(analyses, a)
	}
	hist, err := analysis.Aggregate(analyses)
	if err != nil {
		return err
	}
	if *flagged {
		hist = analysis.FlaggedItems(hist, analysis.SignalYellow)
		fmt.Printf("%d item(s) flagged yellow or red across %d administrations\n",
			len(hist), *runs)
	}
	fmt.Print(report.ItemHistories(hist))
	return nil
}

// cmdCalibrate turns an exam into (or refines) a calibrated adaptive pool.
// With -init (or when the exam has no parameters yet) it seeds per-item IRT
// parameters from each problem's measured classical difficulty (falling
// back to an average item when unmeasured). With -results it runs the
// calibration feedback pass offline: per-student abilities are estimated
// from the saved sitting under the current parameters, then each item's
// difficulty is refit from those responses — the same pass the server runs
// on POST /v1/exams/{id}:recalibrate.
func cmdCalibrate(args []string) error {
	fs := flag.NewFlagSet("calibrate", flag.ContinueOnError)
	bankPath := fs.String("bank", "bank.json", "bank file")
	examID := fs.String("exam", "final", "exam ID")
	resultPath := fs.String("results", "", "saved exam result JSON to calibrate from")
	discrimination := fs.Float64("a", 1.5, "discrimination for seeded parameters")
	minObs := fs.Int("min", adaptive.DefaultMinCalibrationObs, "minimum responses per item")
	initOnly := fs.Bool("init", false, "(re)seed parameters from classical difficulty even if present")
	if err := fs.Parse(args); err != nil {
		return err
	}
	store, err := bank.Load(*bankPath)
	if err != nil {
		return err
	}
	rec, err := store.Exam(*examID)
	if err != nil {
		return err
	}
	if *initOnly || len(rec.ItemParams) == 0 {
		problems, err := store.Problems(rec.ProblemIDs)
		if err != nil {
			return err
		}
		rec.ItemParams = make(map[string]simulate.IRTParams, len(problems))
		for _, p := range problems {
			params := simulate.IRTParams{A: *discrimination}
			if p.Measured() && p.Difficulty > 0 && p.Difficulty < 1 {
				if fit, err := simulate.ParamsForTargetP(p.Difficulty, *discrimination, 0); err == nil {
					params = fit
				}
			}
			rec.ItemParams[p.ID] = params
		}
		fmt.Printf("seeded IRT parameters for %d items of exam %q\n",
			len(rec.ItemParams), rec.ID)
	}
	if *resultPath != "" {
		res, err := analysis.LoadResult(*resultPath)
		if err != nil {
			return err
		}
		obs, err := calibrationObservations(res, rec.ItemParams)
		if err != nil {
			return err
		}
		cal := adaptive.CalibratePool(rec.ItemParams, obs, *minObs)
		for pid, params := range cal.Updated {
			fmt.Printf("  %-10s b %+.3f -> %+.3f\n", pid, rec.ItemParams[pid].B, params.B)
			rec.ItemParams[pid] = params
		}
		for pid, n := range cal.Skipped {
			fmt.Printf("  %-10s skipped (%d responses < %d)\n", pid, n, *minObs)
		}
		fmt.Printf("recalibrated %d item(s) from %d responses\n",
			len(cal.Updated), cal.Observations)
	}
	if err := store.UpdateExam(rec); err != nil {
		return err
	}
	if err := store.Save(*bankPath); err != nil {
		return err
	}
	fmt.Printf("saved calibrated pool %q (%d items) into %s\n",
		rec.ID, len(rec.ItemParams), *bankPath)
	return nil
}

// calibrationObservations estimates each student's ability from a saved
// sitting under the current parameters, then regroups the dichotomized
// responses by item.
func calibrationObservations(res *analysis.ExamResult, params map[string]simulate.IRTParams) (map[string][]adaptive.CalibrationObservation, error) {
	if err := res.Validate(); err != nil {
		return nil, err
	}
	obs := make(map[string][]adaptive.CalibrationObservation)
	for _, student := range res.Students {
		var records []adaptive.ResponseRecord
		var answered []analysis.Response
		for _, r := range student.Responses {
			p, ok := params[r.ProblemID]
			if !ok || !r.Answered {
				continue
			}
			records = append(records, adaptive.ResponseRecord{Params: p, Correct: r.Correct()})
			answered = append(answered, r)
		}
		if len(records) == 0 {
			continue
		}
		theta, _, err := adaptive.EstimateEAP(records)
		if err != nil {
			return nil, fmt.Errorf("estimate %s: %w", student.StudentID, err)
		}
		for _, r := range answered {
			obs[r.ProblemID] = append(obs[r.ProblemID], adaptive.CalibrationObservation{
				Theta: theta, Correct: r.Correct(),
			})
		}
	}
	return obs, nil
}

func cmdFeedback(args []string) error {
	fs := flag.NewFlagSet("feedback", flag.ContinueOnError)
	bankPath := fs.String("bank", "bank.json", "bank file")
	examID := fs.String("exam", "final", "exam ID")
	class := fs.Int("class", 44, "simulated class size")
	seed := fs.Int64("seed", 7, "simulation seed")
	students := fs.Int("students", 5, "weakest students to report (0 = all)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	pipe, res, a, err := simulateAndAnalyze(*bankPath, *examID, *class, *seed,
		analysis.DefaultGroupFraction)
	if err != nil {
		return err
	}
	out, err := pipe.FeedbackReport(res, a, *students)
	if err != nil {
		return err
	}
	fmt.Print(out)
	return nil
}

func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ContinueOnError)
	bankPath := fs.String("bank", "bank.json", "bank file")
	examID := fs.String("exam", "final", "exam ID")
	class := fs.Int("class", 100, "simulated class size")
	seed := fs.Int64("seed", 7, "simulation seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	pipe, res, a, err := simulateAndAnalyze(*bankPath, *examID, *class, *seed,
		analysis.DefaultGroupFraction)
	if err != nil {
		return err
	}
	out, err := pipe.StatisticsReport(res, a)
	if err != nil {
		return err
	}
	fmt.Print(out)
	return nil
}

func cmdPreview(args []string) error {
	fs := flag.NewFlagSet("preview", flag.ContinueOnError)
	bankPath := fs.String("bank", "bank.json", "bank file")
	examID := fs.String("exam", "final", "exam ID")
	out := fs.String("out", "exam.html", "output HTML path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	pipe, err := core.Open(*bankPath)
	if err != nil {
		return err
	}
	page, err := pipe.ExamPreviewHTML(*examID)
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, []byte(page), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote exam preview %s (%d bytes)\n", *out, len(page))
	return nil
}

// SeedBank authors a demo bank: problems spread over concepts, levels and
// styles, plus one exam covering all of them. Exported for reuse by the
// examples and tests through the main package's test binary.
func SeedBank(store bank.Storage, nProblems, nConcepts int) (examID string, err error) {
	concepts := cognition.NumberedConcepts(nConcepts)
	levels := cognition.Levels()
	var ids []string
	for i := 0; i < nProblems; i++ {
		id := fmt.Sprintf("q%03d", i+1)
		var p *item.Problem
		switch i % 5 {
		case 0, 1, 2:
			p, err = item.NewMultipleChoice(id,
				fmt.Sprintf("Demo multiple-choice question %d", i+1),
				[]string{"alpha", "beta", "gamma", "delta"}, i%4)
			if err != nil {
				return "", err
			}
		case 3:
			p = &item.Problem{ID: id, Style: item.TrueFalse,
				Question: fmt.Sprintf("Demo statement %d is true.", i+1),
				Answer:   []string{"true", "false"}[i%2]}
		case 4:
			p = &item.Problem{ID: id, Style: item.Completion,
				Question: fmt.Sprintf("Fill the blank for item %d: ____", i+1),
				Blanks:   [][]string{{"answer"}}}
		}
		p.ConceptID = concepts[i%nConcepts].ID
		p.Level = levels[i%len(levels)]
		p.Subject = fmt.Sprintf("Subject %d", i%3+1)
		p.Keywords = []string{"demo"}
		p.Difficulty = -1
		p.Discrimination = -1
		if err := store.AddProblem(p); err != nil {
			return "", err
		}
		ids = append(ids, id)
	}
	draft := authoring.NewExamDraft("final", "Demo final exam")
	if err := draft.Add(ids...); err != nil {
		return "", err
	}
	rec, err := draft.Finalize(store)
	if err != nil {
		return "", err
	}
	rec.TestTimeSeconds = 3600
	if err := store.AddExam(rec); err != nil {
		return "", err
	}
	return rec.ID, nil
}

func cmdSeed(args []string) error {
	fs := flag.NewFlagSet("seed", flag.ContinueOnError)
	bankPath := fs.String("bank", "bank.json", "bank file to write")
	nProblems := fs.Int("problems", 60, "number of problems to author")
	nConcepts := fs.Int("concepts", 5, "number of concepts")
	backend := fs.String("backend", "memory", "storage backend to author into: memory or sharded")
	if err := fs.Parse(args); err != nil {
		return err
	}
	store, err := bank.NewBackend(*backend, 0)
	if err != nil {
		return err
	}
	examID, err := SeedBank(store, *nProblems, *nConcepts)
	if err != nil {
		return err
	}
	if err := store.Save(*bankPath); err != nil {
		return err
	}
	fmt.Printf("seeded %d problems and exam %q into %s\n",
		store.ProblemCount(), examID, *bankPath)
	return nil
}

func cmdSearch(args []string) error {
	fs := flag.NewFlagSet("search", flag.ContinueOnError)
	bankPath := fs.String("bank", "bank.json", "bank file")
	keyword := fs.String("keyword", "", "keyword filter")
	styleName := fs.String("style", "", "style filter (Essay, TrueFalse, ...)")
	levelName := fs.String("level", "", "cognition level filter (A-F or name)")
	subject := fs.String("subject", "", "subject filter")
	limit := fs.Int("limit", 20, "result cap")
	if err := fs.Parse(args); err != nil {
		return err
	}
	store, err := bank.Load(*bankPath)
	if err != nil {
		return err
	}
	q := bank.Query{Keyword: *keyword, Subject: *subject, Limit: *limit}
	if *styleName != "" {
		style, err := item.ParseStyle(*styleName)
		if err != nil {
			return err
		}
		q.Style = style
	}
	if *levelName != "" {
		level, err := cognition.ParseLevel(*levelName)
		if err != nil {
			return err
		}
		q.Level = level
	}
	results := store.Search(q)
	fmt.Printf("%d match(es)\n", len(results))
	for _, p := range results {
		fmt.Printf("%-8s %-14s %-13s %s\n", p.ID, p.Style, p.Level, p.Question)
	}
	return nil
}

func cmdAnalyze(args []string) error {
	fs := flag.NewFlagSet("analyze", flag.ContinueOnError)
	bankPath := fs.String("bank", "bank.json", "bank file")
	examID := fs.String("exam", "final", "exam ID")
	class := fs.Int("class", 44, "simulated class size")
	seed := fs.Int64("seed", 7, "simulation seed")
	fraction := fs.Float64("fraction", analysis.DefaultGroupFraction,
		"upper/lower group fraction (paper default 0.25; Kelly 0.27)")
	apply := fs.Bool("apply", false, "write measured indices back into the bank")
	nConcepts := fs.Int("concepts", 5, "concept count used when seeding")
	if err := fs.Parse(args); err != nil {
		return err
	}
	pipe, err := core.Open(*bankPath)
	if err != nil {
		return err
	}
	res, err := pipe.RunSimulated(*examID, core.SimulationConfig{
		Class: simulate.PopulationConfig{N: *class, Mean: 0, SD: 1, Seed: *seed},
		Seed:  *seed + 1,
	})
	if err != nil {
		return err
	}
	a, err := pipe.Analyze(res, analysis.Options{GroupFraction: *fraction})
	if err != nil {
		return err
	}
	out, err := pipe.Report(res, a, cognition.NumberedConcepts(*nConcepts))
	if err != nil {
		return err
	}
	fmt.Print(out)
	if *apply {
		n, err := pipe.ApplyMeasurements(a)
		if err != nil {
			return err
		}
		if err := pipe.Save(*bankPath); err != nil {
			return err
		}
		fmt.Printf("applied measurements to %d problems\n", n)
	}
	return nil
}

func cmdCoverage(args []string) error {
	fs := flag.NewFlagSet("coverage", flag.ContinueOnError)
	bankPath := fs.String("bank", "bank.json", "bank file")
	examID := fs.String("exam", "final", "exam ID")
	nConcepts := fs.Int("concepts", 5, "concept count")
	if err := fs.Parse(args); err != nil {
		return err
	}
	pipe, err := core.Open(*bankPath)
	if err != nil {
		return err
	}
	table, err := pipe.Coverage(*examID, cognition.NumberedConcepts(*nConcepts))
	if err != nil {
		return err
	}
	fmt.Println("Two-way specification table:")
	printTwoWay(table)
	return nil
}

func printTwoWay(table *cognition.TwoWayTable) {
	fmt.Printf("%-14s", "")
	for _, l := range cognition.Levels() {
		fmt.Printf("%-15s", l)
	}
	fmt.Println("SUM")
	for _, c := range table.Concepts() {
		fmt.Printf("%-14s", c.Name)
		row, _ := table.Row(c.ID)
		for _, n := range row {
			fmt.Printf("%-15d", n)
		}
		fmt.Println(table.ConceptSum(c.ID))
	}
}

func cmdExportSCORM(args []string) error {
	fs := flag.NewFlagSet("export-scorm", flag.ContinueOnError)
	bankPath := fs.String("bank", "bank.json", "bank file")
	examID := fs.String("exam", "final", "exam ID")
	out := fs.String("out", "exam.zip", "output package path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	pipe, err := core.Open(*bankPath)
	if err != nil {
		return err
	}
	pkg, err := pipe.ExportSCORM(*examID)
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := pkg.WriteZip(f); err != nil {
		return err
	}
	fmt.Printf("wrote SCORM package %s (%d files)\n", *out, len(pkg.Files))
	return nil
}

func cmdExportQTI(args []string) error {
	fs := flag.NewFlagSet("export-qti", flag.ContinueOnError)
	bankPath := fs.String("bank", "bank.json", "bank file")
	examID := fs.String("exam", "final", "exam ID")
	out := fs.String("out", "exam.xml", "output QTI document path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	pipe, err := core.Open(*bankPath)
	if err != nil {
		return err
	}
	raw, err := pipe.ExportQTI(*examID)
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, raw, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote QTI document %s (%d bytes)\n", *out, len(raw))
	return nil
}
