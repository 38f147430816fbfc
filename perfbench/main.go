// Command askbench is MUVE's serving-path benchmark. A single process
// drives serve.Engine.Do, wired as cmd/muveserver wires it, with
// transcripts of seeded random queries corrupted by the simulated speech
// channel, and reports plot and voice latency, throughput, allocations,
// memory and answer quality. A traced run (--trace 1) replays the same
// utterances through a planner that calls each layer itself and reports
// per-layer metrics. Every answer passes a correctness gate; a failure
// makes the command exit 1.
//
//	bash perfbench/run.sh --workload ask-311 --seed 1 --seconds 25 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 25 --baseline perfbench/baseline.json
//
// The last line of standard output is the result:
// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{"value":..,"unit":..}}};
// the line before it is the full report (host, configuration, inputs,
// every metric). A metric table goes to standard error.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
)

// result is the benchmark's last output line.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "askbench:", err)
		if errors.Is(err, errIncorrect) {
			os.Exit(1)
		}
		os.Exit(2)
	}
}

func run() error {
	name := flag.String("workload", "", "workload name, or all (every workload, timed and traced)")
	seed := flag.Int64("seed", 1, "input seed: table rows, queries and speech noise")
	seconds := flag.Int("seconds", 25, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	baseline := flag.String("baseline", "", "with --workload all, also write every report to this file")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	if *name == "all" {
		return runAll(*seed, *seconds, *baseline)
	}
	w, err := workloadByName(*name)
	if err != nil {
		return err
	}
	rep, err := runWorkload(w, *seed, *seconds, *trace == 1)
	if err != nil {
		return fmt.Errorf("%s: %w", w.Name, err)
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	printTable(rep, defs)
	if err := printJSON(rep); err != nil {
		return err
	}
	res := result{Correct: rep.Correct, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: rep.Metrics.only(defs)}
	if err := printJSON(res); err != nil {
		return err
	}
	if !rep.Correct {
		return errIncorrect
	}
	return nil
}

// runAll runs every workload, timed and traced, and prints each report;
// the result line prefixes each metric with its workload.
func runAll(seed int64, seconds int, baseline string) error {
	var reports []*report
	total := result{Correct: true, Metrics: metricSet{}}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			rep, err := runWorkload(w, seed, seconds, traced)
			if err != nil {
				return fmt.Errorf("%s: %w", w.Name, err)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			printTable(rep, defs)
			if err := printJSON(rep); err != nil {
				return err
			}
			reports = append(reports, rep)
			total.Correct = total.Correct && rep.Correct
			total.Attempted += rep.Attempted
			total.Failed += rep.Failed
			for k, v := range rep.Metrics.only(defs) {
				total.Metrics[w.Name+"/"+k] = v
			}
		}
	}
	if baseline != "" {
		buf, err := json.MarshalIndent(reports, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(baseline, append(buf, '\n'), 0o644); err != nil {
			return fmt.Errorf("writing baseline: %w", err)
		}
	}
	if err := printJSON(total); err != nil {
		return err
	}
	if !total.Correct {
		return errIncorrect
	}
	return nil
}

func printJSON(v any) error {
	buf, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(buf))
	return err
}

// printTable writes a run's metrics, gate verdict and inputs to stderr.
func printTable(rep *report, defs []metricDef) {
	mode := "timed"
	if rep.Trace {
		mode = "traced"
	}
	fmt.Fprintf(os.Stderr, "== %s (%s, seed %d, %ds): %d requests, %d failed\n",
		rep.Workload, mode, rep.Seed, rep.Seconds, rep.Attempted, rep.Failed)
	for _, note := range rep.Notes {
		fmt.Fprintln(os.Stderr, "   FAIL", note)
	}
	if rep.TiedOptima > 0 {
		fmt.Fprintf(os.Stderr, "   note: %d traced answers chose a different tied optimum (same objective, both proven optimal)\n", rep.TiedOptima)
	}
	names := make([]string, 0, len(defs)+1)
	for _, d := range defs {
		names = append(names, d.Name)
	}
	if !rep.Trace {
		names = append(names, errorShare.Name)
	}
	for _, n := range names {
		v := rep.Metrics[n]
		fmt.Fprintf(os.Stderr, "   %-26s %14.4f %s\n", n, v.Value, v.Unit)
	}
	in := rep.Inputs
	keys := make([]string, 0, len(rep.Requests))
	for k := range rep.Requests {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(os.Stderr, "   requests.%-17s %14d\n", k, rep.Requests[k])
	}
	fmt.Fprintf(os.Stderr, "   inputs: %d rows, CSV %.1f MB, live %.1f MB (L2 %.1f MB/core, L3 %.1f MB), %.2f candidates/request, %.2f predicates/query, %.3f repeated\n",
		in.Rows, in.CSVMB, in.LiveMB, in.L2MB, in.L3MB, in.CandidatesPerRequest, in.PredsPerQuery, in.RepeatedShare)
}
