package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// selfTest runs a short traced run of every workload and checks that
// every metric BENCHMARK.json names is emitted, that no operation or
// verification failed, and that the replay's spans form one rooted
// tree per campaign, each child inside its parent's interval.
func selfTest(ctx context.Context, cfg config) error {
	raw, err := os.ReadFile(filepath.Join(cfg.root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var bench struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		return fmt.Errorf("BENCHMARK.json: %v", err)
	}
	cfg.seconds, cfg.trace = 1, true
	for _, w := range workloads {
		cfg.w = w
		fmt.Printf("== self-test %s\n", w.name)
		res, err := run(ctx, cfg)
		if err != nil {
			return fmt.Errorf("%s: %v", w.name, err)
		}
		report(res, true)
		if res.ops.failed != 0 {
			return fmt.Errorf("%s: op_error_rate is not 0: %v", w.name, res.ops.msgs)
		}
		for _, want := range []struct {
			kind  string
			names []struct{ Name string }
			got   []metric
		}{{"end-to-end", bench.EndToEnd, res.e2e}, {"per-layer", bench.PerLayer, res.layers}} {
			have := make(map[string]bool)
			for _, m := range want.got {
				have[m.name] = true
			}
			for _, n := range want.names {
				if !have[n.Name] {
					return fmt.Errorf("%s: %s metric %s not emitted", w.name, want.kind, n.Name)
				}
			}
		}
		if err := checkTrees(res.spans); err != nil {
			return fmt.Errorf("%s: %v", w.name, err)
		}
	}
	return nil
}
