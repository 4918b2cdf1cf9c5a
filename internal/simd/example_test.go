package simd_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"repro/internal/simd"
	"repro/internal/simrun"
)

// ExampleServer_Handler runs the simulation service in-process and drives
// it the way a design-space exploration client would: submit scenarios
// over HTTP, poll for results, and watch the content-addressed result
// cache turn a repeated query into a byte-identical answer. cmd/simd
// serves the same handler on -addr.
func ExampleServer_Handler() {
	cache, err := simrun.NewCache(simrun.CacheOpts{Encode: simd.Encode})
	if err != nil {
		fmt.Println(err)
		return
	}
	server, err := simd.New(simd.Config{Workers: 2, Cache: cache})
	if err != nil {
		fmt.Println(err)
		return
	}
	ts := httptest.NewServer(server.Handler())
	defer ts.Close()

	// waitDone polls the job until it reaches a terminal state and returns
	// the final response body.
	waitDone := func(id string) ([]byte, error) {
		for {
			resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
			if err != nil {
				return nil, err
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				return nil, err
			}
			var doc struct {
				Status string `json:"status"`
				Error  string `json:"error"`
			}
			if err := json.Unmarshal(body, &doc); err != nil {
				return nil, err
			}
			switch doc.Status {
			case "done":
				return body, nil
			case "failed":
				return nil, fmt.Errorf("job failed: %s", doc.Error)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	// Two identical submissions plus one variant: the service runs two
	// simulations, not three.
	specs := []string{
		`{"bench":"gcc","insts":50000,"warmup":100000,"fabric":"mesh"}`,
		`{"bench":"gcc","insts":50000,"warmup":100000,"fabric":"mesh"}`,
		`{"bench":"gcc","insts":50000,"warmup":100000,"fabric":"ring"}`,
	}
	var bodies [][]byte
	for i, spec := range specs {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(spec))
		if err != nil {
			fmt.Println(err)
			return
		}
		var doc struct {
			ID          string `json:"id"`
			Fingerprint string `json:"fingerprint"`
		}
		err = json.NewDecoder(resp.Body).Decode(&doc)
		resp.Body.Close()
		if err != nil {
			fmt.Println(err)
			return
		}
		fmt.Printf("submit %d: HTTP %d job=%s fingerprint=%s…\n",
			i+1, resp.StatusCode, doc.ID, doc.Fingerprint[:12])
		body, err := waitDone(doc.ID)
		if err != nil {
			fmt.Println(err)
			return
		}
		bodies = append(bodies, body)
	}

	fmt.Println()
	fmt.Printf("identical submissions share one job and one result: bodies equal = %v\n",
		bytes.Equal(bodies[0], bodies[1]))
	stats := server.CacheStats()
	fmt.Printf("cache: runs=%d hits=%d (3 submissions, 2 distinct scenarios)\n\n",
		stats.Runs, stats.Hits)

	var ipc struct {
		Result struct {
			Cores []struct {
				IPC float64 `json:"ipc"`
			} `json:"cores"`
		} `json:"result"`
	}
	for i, body := range bodies {
		if err := json.Unmarshal(body, &ipc); err != nil {
			fmt.Println(err)
			return
		}
		fmt.Printf("job %d IPC=%.3f\n", i+1, ipc.Result.Cores[0].IPC)
	}

	// The cmd/simd SIGTERM path: stop accepting, finish everything.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := server.Drain(ctx); err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("\ndrained and shut down cleanly")
	// Output:
	// submit 1: HTTP 202 job=j-29d394deddafe706 fingerprint=29d394deddaf…
	// submit 2: HTTP 200 job=j-29d394deddafe706 fingerprint=29d394deddaf…
	// submit 3: HTTP 202 job=j-1894680aee4aabbc fingerprint=1894680aee4a…
	//
	// identical submissions share one job and one result: bodies equal = true
	// cache: runs=2 hits=0 (3 submissions, 2 distinct scenarios)
	//
	// job 1 IPC=0.763
	// job 2 IPC=0.763
	// job 3 IPC=0.763
	//
	// drained and shut down cleanly
}
