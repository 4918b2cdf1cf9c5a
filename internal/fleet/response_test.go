package fleet

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/simrun"
)

// tooLarge is the message every oversized response read fails with.
const tooLarge = "exceeds the 4194304-byte limit"

// writeOversized answers with a JSON string one byte past the limit.
func writeOversized(w http.ResponseWriter, status int) {
	w.WriteHeader(status)
	w.Write([]byte(`"` + strings.Repeat("a", maxResponseBytes) + `"`))
}

// TestDispatchBoundsDelivery: a worker whose delivery is larger than the
// limit fails the attempt with an error naming it, and nothing reaches
// the coordinator's cache.
func TestDispatchBoundsDelivery(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeOversized(w, http.StatusOK)
	}))
	defer srv.Close()
	cache, err := simrun.NewCache(simrun.CacheOpts{Encode: func(simrun.Result) ([]byte, error) { return []byte("{}"), nil }})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCoordinator(Config{Cache: cache, LeaseTTL: time.Minute, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	w := &workerState{id: "big", url: srv.URL, lastBeat: time.Now()}
	c.workers[w.id] = w
	if _, _, err := c.dispatch(context.Background(), w, "key", []byte(`{"bench":"gcc"}`), nil, 1); err == nil || !strings.Contains(err.Error(), tooLarge) {
		t.Fatalf("dispatch err = %v, want one naming the limit", err)
	}
	if cache.Len() != 0 || c.mCompletions.Value() != 0 {
		t.Errorf("oversized delivery was cached (%d entries, %d completions)", cache.Len(), c.mCompletions.Value())
	}
}

// TestClientBoundsJobDocuments: a submission answer or a poll answer
// larger than the limit fails at once with an error naming it. The answer
// is deterministic, so the client asks for it once and never retries.
func TestClientBoundsJobDocuments(t *testing.T) {
	for _, name := range []string{"submit", "poll"} {
		t.Run(name, func(t *testing.T) {
			var oversized atomic.Int64
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if name == "poll" && r.Method == http.MethodPost {
					w.WriteHeader(http.StatusAccepted)
					w.Write([]byte(`{"id":"j-3","status":"queued"}`))
					return
				}
				oversized.Add(1)
				writeOversized(w, http.StatusOK)
			}))
			defer srv.Close()
			cl := &Client{Base: srv.URL, Retry: fastRetry, Poll: time.Millisecond}
			if _, err := cl.SubmitAndWait(context.Background(), simrun.Spec{Bench: "gcc"}); err == nil || !strings.Contains(err.Error(), tooLarge) {
				t.Fatalf("err = %v, want one naming the limit", err)
			}
			if n := oversized.Load(); n != 1 {
				t.Errorf("oversized answers served = %d, want 1 (no retry)", n)
			}
		})
	}
}
