package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// record is one saved run: its metadata line and its result line.
type record struct {
	Meta    map[string]any
	Metrics map[string]metric
}

func readRecord(path string) (*record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rec := &record{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var v struct {
			Meta    map[string]any    `json:"meta"`
			Metrics map[string]metric `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(line), &v); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if v.Meta != nil {
			rec.Meta = v.Meta
		}
		if v.Metrics != nil {
			rec.Metrics = v.Metrics
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if rec.Meta == nil || rec.Metrics == nil {
		return nil, fmt.Errorf("%s: no perfbench result", path)
	}
	return rec, nil
}

// compareMain prints new/old ratios of two saved runs. A difference in
// run metadata (toolchain, cores, kernel variant, workload sizes) is
// flagged and makes the comparison exit non-zero; so does a verdict
// fingerprint that differs between two runs on the same seed.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare OLD NEW (saved standard output of two runs)")
		return 2
	}
	old, err := readRecord(args[0])
	if err == nil {
		var cur *record
		if cur, err = readRecord(args[1]); err == nil {
			return compareRecords(old, cur)
		}
	}
	fmt.Fprintln(os.Stderr, "perfbench compare:", err)
	return 2
}

func compareRecords(old, cur *record) int {
	status := 0
	keys := map[string]bool{}
	for k := range old.Meta {
		keys[k] = true
	}
	for k := range cur.Meta {
		keys[k] = true
	}
	sameSeed := fmt.Sprint(old.Meta["seed"]) == fmt.Sprint(cur.Meta["seed"])
	for _, k := range sortedKeys(keys) {
		a, b := fmt.Sprint(old.Meta[k]), fmt.Sprint(cur.Meta[k])
		switch {
		case a == b, k == "seed", k == "size.rounds":
		case k == "size.fingerprint":
			if sameSeed {
				fmt.Printf("FLAG verdicts differ on the same seed: fingerprint %s vs %s\n", a, b)
				status = 1
			}
		default:
			fmt.Printf("FLAG metadata differs: %s %s vs %s\n", k, a, b)
			status = 1
		}
	}
	names := map[string]bool{}
	for k := range old.Metrics {
		names[k] = true
	}
	for _, k := range sortedKeys(names) {
		a, okA := old.Metrics[k]
		b, okB := cur.Metrics[k]
		if !okA || !okB {
			fmt.Printf("%-40s only in one run\n", k)
			continue
		}
		ratio := "-"
		if a.Value != 0 {
			ratio = fmt.Sprintf("x%.3f", b.Value/a.Value)
		}
		fmt.Printf("%-40s %14.4f %14.4f %8s %s\n", k, a.Value, b.Value, ratio, a.Unit)
	}
	return status
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
