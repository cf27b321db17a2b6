package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

// runRepeat runs the workload n times, each in its own process (so
// peak_rss_mb starts from zero) and with its own seed (seed, seed+1, …), the
// way the driver does, and prints min / median / max and the spread of every
// end-to-end metric next to its bound. Spread is (Q3 − Q1) ÷ median with
// Python's statistics.quantiles(n=4) quartiles.
func runRepeat(cfg config, n int, w io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	for i := 0; i < n; i++ {
		seed := cfg.seed + uint64(i)
		cmd := exec.Command(self,
			"-workload", cfg.workload, "-seed", strconv.FormatUint(seed, 10),
			"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
			"-scale", cfg.scale, "-workdir", cfg.workdir)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run %d (seed %d): %w", i, seed, err)
		}
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		if i == 0 {
			for _, l := range lines[:2] { // the workload and stamp lines
				fmt.Fprintln(w, string(l))
			}
		}
		var res struct {
			Metrics map[string]jsonMetric `json:"metrics"`
		}
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			return fmt.Errorf("run %d (seed %d): last line is not the result object: %w", i, seed, err)
		}
		fmt.Fprintf(w, "run %d seed %d:", i, seed)
		for _, d := range endToEnd {
			v := res.Metrics[d.name].Value
			values[d.name] = append(values[d.name], v)
			fmt.Fprintf(w, " %s=%s", d.name, short(d, v))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-16s %5s %12s %12s %12s %8s %6s %13s\n", "metric", "unit", "min", "median", "max", "spread", "bound", "spread/bound")
	for _, d := range endToEnd {
		s := sorted(values[d.name])
		spread := iqrShare(s)
		fmt.Fprintf(w, "%-16s %5s %12s %12s %12s %8.4f %6.2g %13.2f\n",
			d.name, d.unit, short(d, s[0]), short(d, median(s)), short(d, s[len(s)-1]), spread, d.bound, spread/d.bound)
	}
	return nil
}

// short formats a value for the table: a count in full, because counts are
// compared exactly, and a measurement to five digits.
func short(d decl, v float64) string {
	if d.unit == "count" {
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	return strconv.FormatFloat(v, 'g', 5, 64)
}
