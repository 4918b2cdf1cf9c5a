package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/simrun"
)

// Client submits scenario specs to a coordinator's job API (the same
// /v1/jobs surface the single-process service exposes) and waits for
// completion. Submissions and polls retry transient failures — 5xx,
// backpressure, connection refused/reset — under the capped, jittered
// backoff, so a coordinator restart or a network blip costs a retry,
// not the whole sweep.
type Client struct {
	// Base is the coordinator's base URL (e.g. http://host:8080).
	Base string
	// Retry shapes the backoff for submissions and polls.
	Retry Backoff
	// Poll is the status-poll interval (<=0 selects 100ms).
	Poll time.Duration
}

// JobResult is a completed job as the client sees it.
type JobResult struct {
	ID      string
	Tier    string
	Worker  string
	Payload json.RawMessage
}

// jobDoc is the subset of the service's job document the client needs.
type jobDoc struct {
	ID      string          `json:"id"`
	Status  string          `json:"status"`
	Tier    string          `json:"tier"`
	Worker  string          `json:"worker"`
	Error   string          `json:"error"`
	Result  json.RawMessage `json:"result"`
	Message string          `json:"message"`
}

// jobClient sends a Client's submissions and polls.
var jobClient = &http.Client{Timeout: 30 * time.Second}

// SubmitAndWait submits sp and blocks until the job settles. Transient
// submission and poll failures retry; a failed job or a permanent
// rejection (bad spec) returns an error carrying the service's message.
func (cl *Client) SubmitAndWait(ctx context.Context, sp simrun.Spec) (JobResult, error) {
	body, err := json.Marshal(sp)
	if err != nil {
		return JobResult{}, err
	}
	var doc jobDoc
	err = cl.Retry.Retry(ctx, "submit:"+sp.Label+sp.Bench, func() (bool, error) {
		d, retry, err := cl.post(ctx, body)
		if err != nil {
			return retry, err
		}
		doc = d
		return false, nil
	})
	if err != nil {
		return JobResult{}, fmt.Errorf("fleet: submitting %s: %w", specName(sp), err)
	}
	return cl.wait(ctx, doc)
}

func specName(sp simrun.Spec) string {
	if sp.Label != "" {
		return sp.Label
	}
	if sp.Bench != "" {
		return sp.Bench
	}
	return "mix:" + strings.Join(sp.Mix, "+")
}

// post performs one submission attempt; retry reports whether a failure
// is transient.
func (cl *Client) post(ctx context.Context, body []byte) (jobDoc, bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, cl.Base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return jobDoc{}, false, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := jobClient.Do(req)
	if err != nil {
		return jobDoc{}, TransientErr(err), err
	}
	defer resp.Body.Close()
	data, err := readResponse(resp.Body)
	if err != nil {
		return jobDoc{}, TransientErr(err), err
	}
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		return jobDoc{}, TransientStatus(resp.StatusCode),
			fmt.Errorf("POST /v1/jobs: %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
	}
	var doc jobDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return jobDoc{}, false, err
	}
	return doc, false, nil
}

// wait polls the job until it settles. Poll failures retry in place:
// the job keeps running server-side regardless.
func (cl *Client) wait(ctx context.Context, doc jobDoc) (JobResult, error) {
	poll := cl.Poll
	if poll <= 0 {
		poll = 100 * time.Millisecond
	}
	for {
		switch doc.Status {
		case "done":
			return JobResult{ID: doc.ID, Tier: doc.Tier, Worker: doc.Worker, Payload: doc.Result}, nil
		case "failed":
			return JobResult{}, fmt.Errorf("fleet: job %s failed: %s", doc.ID, doc.Error)
		}
		if !sleep(ctx, poll) {
			return JobResult{}, ctx.Err()
		}
		err := cl.Retry.Retry(ctx, "poll:"+doc.ID, func() (bool, error) {
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, cl.Base+"/v1/jobs/"+doc.ID, nil)
			if err != nil {
				return false, err
			}
			resp, err := jobClient.Do(req)
			if err != nil {
				return TransientErr(err), err
			}
			defer resp.Body.Close()
			data, err := readResponse(resp.Body)
			if err != nil {
				return TransientErr(err), err
			}
			if resp.StatusCode != http.StatusOK {
				return TransientStatus(resp.StatusCode),
					fmt.Errorf("GET /v1/jobs/%s: %d: %s", doc.ID, resp.StatusCode, strings.TrimSpace(string(data)))
			}
			return false, json.Unmarshal(data, &doc)
		})
		if err != nil {
			return JobResult{}, err
		}
	}
}
