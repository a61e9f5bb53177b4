package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"mineassess/internal/loadgen"
	"mineassess/internal/trace"
)

// runE24 drives the composed /v1 stack (journal + events enabled) with the
// open-loop load harness: a ramp+soak of mixed virtual learners against a
// hermetic in-process server, then the capacity ladder on the same server.
func runE24(seed int64) (any, error) {
	sec, _, err := measureLoadgen(loadgen.InProcessConfig{}, loadgen.Config{
		Mix: e24Mix(), RatePerSec: 200, Ramp: 3 * time.Second, Soak: 10 * time.Second, Seed: seed,
	}, &loadgen.CapacityConfig{
		StartRate: 50, Factor: 2, StepDuration: 3 * time.Second, MaxSteps: 6,
	})
	if err != nil {
		return nil, err
	}
	loadgen.WriteReport(os.Stdout, sec.Run)
	loadgen.WriteCapacityReport(os.Stdout, sec.Capacity)
	fmt.Println("expected shape: offered rate ~= planned rate (open-loop), zero errors, p99 under the SLO on the run; the ladder reports the knee")
	return sec, nil
}

func e24Mix() loadgen.Mix { return loadgen.Mix{Fixed: 6, CAT: 3, Watch: 1} }

// measureLoadgen boots the hermetic server described by target, runs one
// ramp+soak of run against it and — when ladder is non-nil — the capacity
// ladder on the same server. It returns the measurements and the target's
// tracer (nil unless target asked for one).
func measureLoadgen(target loadgen.InProcessConfig, run loadgen.Config, ladder *loadgen.CapacityConfig) (*loadgen.Section, *trace.Tracer, error) {
	ip, err := loadgen.StartInProcess(target)
	if err != nil {
		return nil, nil, err
	}
	defer ip.Close()
	run.BaseURL = ip.URL
	runner, err := loadgen.NewRunner(run)
	if err != nil {
		return nil, nil, err
	}
	sec := &loadgen.Section{Mix: run.Mix}
	if sec.Run, err = runner.Run(context.Background()); err != nil {
		return nil, nil, err
	}
	if ladder != nil {
		if sec.Capacity, err = runner.Capacity(context.Background(), *ladder); err != nil {
			return nil, nil, err
		}
	}
	return sec, ip.Tracer, nil
}
