package loadgen

import (
	"context"
	"testing"
	"time"

	"pnptuner/internal/client"
	"pnptuner/internal/testutil"
)

// TestRunAgainstCluster drives a short mixed-op run against a real
// 2-replica cluster: clean error-free completion with nonzero
// throughput and populated per-op quantiles.
func TestRunAgainstCluster(t *testing.T) {
	c := testutil.StartCluster(t, 2)
	rep, err := Run(context.Background(), Config{
		Target:   c.GateURL,
		Client:   client.New(c.GateURL),
		Rate:     150,
		Duration: 400 * time.Millisecond,
		Seed:     7,
		Machines: []string{"haswell"},
		Budget:   1,
		Regions:  2,
	}, true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sent == 0 || rep.Completed == 0 {
		t.Fatalf("no traffic: %+v", rep)
	}
	if rep.Errors != 0 {
		t.Fatalf("run saw %d errors: %+v", rep.Errors, rep.Ops)
	}
	if rep.ThroughputRPS <= 0 {
		t.Fatalf("throughput = %v", rep.ThroughputRPS)
	}
	pred := rep.Ops[OpPredict]
	if pred.Count == 0 || pred.P50Millis <= 0 || pred.P99Millis < pred.P50Millis {
		t.Fatalf("predict stats = %+v", pred)
	}
	if len(pred.Histogram) == 0 {
		t.Fatal("histogram missing from artifact")
	}
}
