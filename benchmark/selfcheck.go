package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// selfCheck runs every workload twice back to back, each run a process of
// its own as under the driver, and fails unless every end-to-end
// metric of the second run is within its bound of the first. It is the
// benchmark testing its own steadiness: a metric that cannot pass here
// cannot gate a change. Runs are -strict; one the calibration kernel calls
// noisy is repeated once before the host is given up on.
func selfCheck(seed int64, secs float64, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return exitFailed
	}
	bad := 0
	for _, w := range workloads {
		var runs [2]resultLine
		for i := range runs {
			var out []byte
			for attempt := 0; ; attempt++ {
				cmd := exec.Command(exe, "-strict", "-workload", w.Name, "-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.FormatFloat(secs, 'g', -1, 64))
				cmd.Stderr = stderr
				out, err = cmd.Output()
				var ee *exec.ExitError
				if errors.As(err, &ee) && ee.ExitCode() == exitNoisy && attempt == 0 {
					fmt.Fprintf(stdout, "%-18s run %d was noisy; repeating it\n", w.Name, i+1)
					continue
				}
				break
			}
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %s run %d: %v\n", w.Name, i+1, err)
				var ee *exec.ExitError
				if errors.As(err, &ee) && ee.ExitCode() == exitNoisy {
					return exitNoisy
				}
				return exitFailed
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte{'\n'})
			if err := json.Unmarshal(lines[len(lines)-1], &runs[i]); err != nil {
				fmt.Fprintf(stderr, "benchmark: %s run %d: no result line: %v\n", w.Name, i+1, err)
				return exitFailed
			}
		}
		for _, d := range endToEnd {
			a, b := runs[0].Metrics[d.Name].Value, runs[1].Metrics[d.Name].Value
			worse := (b - a) / a
			if d.Better == "higher" {
				worse = (a - b) / a
			}
			verdict := "ok"
			if a == 0 || b == 0 || math.Abs(worse) > d.Bound {
				verdict = "DISAGREE"
				bad++
			}
			fmt.Fprintf(stdout, "%-18s %-16s %14.6g %14.6g  %+7.2f%% of ±%.0f%%  %s\n", w.Name, d.Name, a, b, 100*worse, 100*d.Bound, verdict)
		}
		for i, res := range runs {
			if !res.Correct || res.Failed != 0 {
				fmt.Fprintf(stdout, "%-18s run %d: %d of %d operations failed\n", w.Name, i+1, res.Failed, res.Attempted)
				bad++
			}
		}
	}
	if bad > 0 {
		fmt.Fprintf(stdout, "selfcheck: %d disagreements\n", bad)
		return exitFailed
	}
	fmt.Fprintln(stdout, "selfcheck: every end-to-end metric agrees within its bound")
	return exitOK
}
