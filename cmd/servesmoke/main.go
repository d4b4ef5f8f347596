// Command servesmoke is the serving smoke test: it drives a running
// pnpserve through the Go client SDK and exits non-zero on the first
// contract violation. CI boots pnpserve against a tiny trained model and
// runs this binary; operators can point it at a live deployment as a
// post-deploy check.
//
// It exercises the whole v1 surface: health, model listing, /v1/predict,
// a synchronous /v1/tune, the async job lifecycle (submit → poll →
// result, with sync/async parity asserted bit-for-bit), stable error
// codes, and model listing.
//
// With -refresh it additionally closes the measure→learn loop end to
// end: a measured tune job (measure_budget > 0) must report real runs
// and samples, the fed-back samples must trigger a background refresh,
// and predict traffic must carry the canary to a verdict until the
// served model version advances. The target server must be running with
// -refresh-threshold low enough for one job's samples to trip it.
//
// Usage:
//
//	servesmoke -base http://localhost:8080 [-machine haswell] [-timeout 5m] [-refresh]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"time"

	"pnptuner/internal/api"
	"pnptuner/internal/client"
	"pnptuner/internal/kernels"
)

func main() {
	base := flag.String("base", "http://localhost:8080", "pnpserve base URL")
	machine := flag.String("machine", "haswell", "machine model to exercise")
	timeout := flag.Duration("timeout", 5*time.Minute, "overall deadline (covers train-on-first-request)")
	refresh := flag.Bool("refresh", false,
		"exercise the measure→learn loop (server must run with a low -refresh-threshold)")
	flag.Parse()

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	c := client.New(*base, client.WithRetries(5, 500*time.Millisecond))

	corpus, err := kernels.Compile()
	check(err, "compile corpus")
	region := corpus.Regions[0]
	graphJSON, err := json.Marshal(region.Graph)
	check(err, "marshal graph")

	// 1. The server is up and reporting.
	waitHealthy(ctx, c)

	// 2. Prediction (trains the model on first request).
	step("POST /v1/predict (first request may train)")
	pred, err := c.Predict(ctx, api.PredictRequest{
		Machine: *machine, Objective: "time", Graph: graphJSON,
	})
	check(err, "predict")
	if len(pred.Picks) == 0 || pred.Picks[0].Config == "" {
		fail("predict returned no usable picks: %+v", pred)
	}
	fmt.Printf("  %d picks, first: %3.0fW → %s\n", len(pred.Picks), pred.Picks[0].CapW, pred.Picks[0].Config)

	// 3. Synchronous tune.
	treq := api.TuneRequest{
		Machine: *machine, Objective: "time", Strategy: "hybrid",
		RegionID: region.ID, Budget: 3, Seed: 12345,
	}
	step("POST /v1/tune (sync)")
	sync, err := c.Tune(ctx, treq)
	check(err, "sync tune")
	if len(sync.Picks) == 0 || sync.Picks[0].Evals != 3 {
		fail("sync tune shape wrong: %+v", sync)
	}

	// 4. Async job lifecycle + parity with sync.
	step("POST /v1/tune (async) → poll → result")
	job, err := c.TuneAsync(ctx, treq)
	check(err, "submit async tune")
	fin, err := c.Wait(ctx, job.ID, 200*time.Millisecond)
	check(err, "wait for job")
	if fin.Status != api.JobDone || fin.Result == nil {
		fail("job did not finish cleanly: %+v", fin)
	}
	if !reflect.DeepEqual(*fin.Result, *sync) {
		fail("async result diverges from sync:\n%+v\n%+v", *fin.Result, *sync)
	}
	fmt.Printf("  job %s done, result identical to sync\n", fin.ID)

	// 5. Stable error codes.
	step("error codes")
	if _, err := c.Job(ctx, "nosuchjob"); !client.IsCode(err, api.CodeJobNotFound) {
		fail("unknown job code = %q, want job_not_found (%v)", client.ErrorCode(err), err)
	}
	if _, err := c.Tune(ctx, api.TuneRequest{
		Machine: *machine, Objective: "time", Strategy: "bliss",
		RegionID: region.ID, Budget: api.MaxTuneBudget + 1,
	}); !client.IsCode(err, api.CodeBudgetExceeded) {
		fail("oversized budget code = %q, want budget_exceeded (%v)", client.ErrorCode(err), err)
	}

	// 6. Model listing includes what we just trained.
	step("GET /v1/models")
	models, err := c.ListModels(ctx)
	check(err, "list models")
	if len(models) == 0 {
		fail("no models listed after serving")
	}

	// 7. The measure→learn loop: measured tune → samples → refresh →
	// canary → promoted version, observable through /v1/models/{id}.
	if *refresh {
		refreshLoop(ctx, c, *machine, region.ID, graphJSON)
	}

	health, err := c.Health(ctx)
	check(err, "final health")
	fmt.Printf("smoke OK: served=%d trained=%d jobs_done=%d\n",
		health.Served, health.ModelsTrained, health.Jobs.Done)
}

// refreshLoop drives the full measure→learn cycle: submit an async tune
// job with a real measurement budget, assert the response carries
// measured runs and samples, then keep predicting until the background
// refresh's canary reaches a verdict and the served version advances.
// A demoted canary is legitimate (the retrain lost the shadow score),
// so up to three measure→canary cycles are attempted before failing.
func refreshLoop(ctx context.Context, c *client.Client, machine, regionID string, graphJSON []byte) {
	step("measure→learn loop (async measured tune → refresh → canary → promote)")

	modelID := findModelID(ctx, c, machine)
	det, err := c.Model(ctx, modelID)
	check(err, "model detail")
	baseVersion := det.Version
	fmt.Printf("  model %s serving v%d (%d samples)\n", modelID, det.Version, det.Samples)

	preq := api.PredictRequest{Machine: machine, Objective: "time", Graph: graphJSON}
	for cycle := 1; cycle <= 3; cycle++ {
		job, err := c.TuneAsync(ctx, api.TuneRequest{
			Machine: machine, Objective: "time", Strategy: "hybrid",
			RegionID: regionID, Budget: 3, Seed: uint64(77000 + cycle), MeasureBudget: 8,
		})
		check(err, "submit measured tune")
		fin, err := c.Wait(ctx, job.ID, 200*time.Millisecond)
		check(err, "wait for measured tune")
		if fin.Status != api.JobDone || fin.Result == nil {
			fail("measured job did not finish cleanly: %+v", fin)
		}
		if fin.Result.MeasuredRuns == 0 || len(fin.Result.Samples) == 0 {
			fail("measured tune reported no real runs: runs=%d samples=%d",
				fin.Result.MeasuredRuns, len(fin.Result.Samples))
		}
		if fin.Result.ModelVersion < baseVersion {
			fail("tune served version %d regressed below %d", fin.Result.ModelVersion, baseVersion)
		}
		fmt.Printf("  cycle %d: job %s measured %d runs (%d samples)\n",
			cycle, fin.ID, fin.Result.MeasuredRuns, len(fin.Result.Samples))

		// Predict traffic both scores the canary and proves v(base) keeps
		// serving while the shadow is judged.
		deadline := time.Now().Add(30 * time.Second)
		for time.Now().Before(deadline) {
			pred, err := c.Predict(ctx, preq)
			check(err, "predict during canary")
			if len(pred.Picks) == 0 {
				fail("predict lost picks mid-canary: %+v", pred)
			}
			det, err = c.Model(ctx, modelID)
			check(err, "model detail during canary")
			if det.Version > baseVersion {
				fmt.Printf("  promoted: v%d → v%d after %d samples (history %d events)\n",
					baseVersion, det.Version, det.Samples, len(det.History))
				return
			}
			if det.CanaryVersion == 0 && countEvents(det.History, api.EventDemoted) >= cycle {
				break // this cycle's canary lost; measure again
			}
			time.Sleep(100 * time.Millisecond)
		}
		fmt.Printf("  cycle %d: canary demoted (or window still open), retrying\n", cycle)
	}
	fail("model version never advanced past v%d after 3 measure→canary cycles", baseVersion)
}

// findModelID resolves the content address of the machine's full-corpus
// time model from the registry listing.
func findModelID(ctx context.Context, c *client.Client, machine string) string {
	models, err := c.ListModels(ctx)
	check(err, "list models for refresh loop")
	for _, m := range models {
		if m.Key.Machine == machine && m.Key.Objective == "time" && m.Key.Scenario == "full" {
			return m.ID
		}
	}
	fail("no %s/full/time model listed; predict step should have trained it", machine)
	return ""
}

func countEvents(history []api.VersionEvent, event string) int {
	n := 0
	for _, ev := range history {
		if ev.Event == event {
			n++
		}
	}
	return n
}

// waitHealthy polls /v1/healthz until the server answers.
func waitHealthy(ctx context.Context, c *client.Client) {
	step("GET /v1/healthz (waiting for the server)")
	for {
		h, err := c.Health(ctx)
		if err == nil && h.Status == "ok" {
			return
		}
		select {
		case <-ctx.Done():
			fail("server never became healthy: %v", err)
		case <-time.After(500 * time.Millisecond):
		}
	}
}

func step(name string) { fmt.Println("==>", name) }

func check(err error, what string) {
	if err != nil {
		fail("%s: %v", what, err)
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "servesmoke: FAIL: "+format+"\n", args...)
	os.Exit(1)
}
