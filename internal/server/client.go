package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Client talks to a portendd instance. The zero value is not usable;
// set Base (e.g. "http://localhost:7811"). Tenant, when set, is sent as
// the X-Portend-Tenant header so the server queues the caller fairly
// against other tenants.
//
// With MaxRetries > 0 the client is resumable: connect failures, 429
// shed responses (honoring Retry-After), 503 draining responses, and
// mid-stream disconnects are retried with exponential backoff plus
// jitter. Re-submission is safe — the engine's determinism contract
// (and, with a data dir, the server's verdict store) makes every
// attempt stream the same events in the same order — so the client
// dedupes by detection-order index: verdict and race-error events
// already handed to fn are skipped on the resumed stream, and the
// merged output is byte-identical to an uninterrupted run. Terminal
// error events (including panics) and 4xx rejections are never retried.
type Client struct {
	Base   string
	Tenant string
	HTTP   *http.Client

	// MaxRetries bounds re-submissions after a retriable failure
	// (0 = fail fast, preserving the non-resumable behavior).
	MaxRetries int
	// RetryBase is the first backoff delay (default 100ms); attempt n
	// waits RetryBase << n, plus up to 50% jitter, capped at 5s — unless
	// the server's Retry-After asks for longer.
	RetryBase time.Duration
}

// OverloadedError reports a request shed with HTTP 429 at the server's
// hard queue bound. RetryAfter is the server's suggested wait (zero if
// it sent none).
type OverloadedError struct {
	Tenant     string
	QueueDepth int
	RetryAfter time.Duration
}

func (e *OverloadedError) Error() string {
	return fmt.Sprintf("portendd overloaded (tenant %q, queue depth %d)", e.Tenant, e.QueueDepth)
}

// RemoteError reports a terminal error event or a non-streaming error
// response from the server.
type RemoteError struct {
	Status  int
	Message string
}

func (e *RemoteError) Error() string {
	if e.Status != 0 {
		return fmt.Sprintf("portendd: HTTP %d: %s", e.Status, e.Message)
	}
	return "portendd: " + e.Message
}

// errAbort wraps an error from the caller's event callback so the retry
// loop never retries it.
type errAbort struct{ err error }

func (e *errAbort) Error() string { return e.err.Error() }

// streamState carries dedupe progress across retry attempts.
type streamState struct {
	delivered   int  // verdict + raceError events handed to fn so far
	sawDegraded bool // degraded event already delivered
}

// Analyze submits a request and streams its events to fn in arrival
// order (degraded first if present, then verdicts/race errors in
// deterministic detection order). It returns the terminal done summary.
// fn returning an error abandons the stream — closing the response body
// cancels the server-side run and frees its slot. A nil fn just drains.
func (c *Client) Analyze(ctx context.Context, req Request, fn func(Event) error) (*DoneInfo, error) {
	var st streamState
	for attempt := 0; ; attempt++ {
		done, retriable, err := c.attempt(ctx, req, fn, &st)
		if err == nil {
			return done, nil
		}
		var ab *errAbort
		if errors.As(err, &ab) {
			return nil, ab.err
		}
		if !retriable || attempt >= c.MaxRetries || ctx.Err() != nil {
			return nil, err
		}
		delay := c.backoff(attempt, err)
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// backoff computes the wait before retry attempt+1: exponential from
// RetryBase with up to 50% jitter, capped at 5s, raised to the server's
// Retry-After when the failure carried one.
func (c *Client) backoff(attempt int, err error) time.Duration {
	base := c.RetryBase
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	d := base << attempt
	if d > 5*time.Second {
		d = 5 * time.Second
	}
	d += rand.N(d/2 + 1)
	var oe *OverloadedError
	if errors.As(err, &oe) && oe.RetryAfter > d {
		d = oe.RetryAfter
	}
	return d
}

// attempt performs one submission. retriable classifies the failure for
// the retry loop; st tracks which events earlier attempts already
// delivered so a resumed stream skips them.
func (c *Client) attempt(ctx context.Context, req Request, fn func(Event) error, st *streamState) (done *DoneInfo, retriable bool, err error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, false, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost,
		strings.TrimRight(c.Base, "/")+"/v1/analyze", bytes.NewReader(body))
	if err != nil {
		return nil, false, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	if c.Tenant != "" {
		hreq.Header.Set(TenantHeader, c.Tenant)
	}
	hc := c.HTTP
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Do(hreq)
	if err != nil {
		// Connect failures (daemon restarting, socket refused) are the
		// textbook retriable case — unless our own context ended.
		return nil, ctx.Err() == nil, err
	}
	defer resp.Body.Close()

	if resp.StatusCode != http.StatusOK {
		var eb ErrorBody
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
		retriable := resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode >= 500
		if json.Unmarshal(msg, &eb) == nil && eb.Error != "" {
			if eb.Overloaded {
				oe := &OverloadedError{Tenant: eb.Tenant, QueueDepth: eb.QueueDepth}
				if s, perr := strconv.Atoi(resp.Header.Get("Retry-After")); perr == nil && s > 0 {
					oe.RetryAfter = time.Duration(s) * time.Second
				}
				return nil, true, oe
			}
			return nil, retriable, &RemoteError{Status: resp.StatusCode, Message: eb.Error}
		}
		return nil, retriable, &RemoteError{Status: resp.StatusCode, Message: strings.TrimSpace(string(msg))}
	}

	seen := 0 // verdict + raceError events observed on this attempt
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(line, &ev); err != nil {
			return nil, false, fmt.Errorf("portendd: bad stream line: %w", err)
		}
		deliver := true
		switch ev.Type {
		case EventDone:
			return ev.Done, false, nil
		case EventError:
			// Terminal server-side failure (including a poisoned, panicked
			// run): authoritative, never retried.
			return nil, false, &RemoteError{Message: ev.Message}
		case EventVerdict, EventRaceError:
			seen++
			if seen <= st.delivered {
				deliver = false // replayed by the resumed stream; already handed out
			} else {
				st.delivered = seen
			}
		case EventDegraded:
			if st.sawDegraded {
				deliver = false
			} else {
				st.sawDegraded = true
			}
		}
		if deliver && fn != nil {
			if err := fn(ev); err != nil {
				return nil, false, &errAbort{err: err}
			}
		}
	}
	if err := sc.Err(); err != nil {
		// Mid-stream disconnect: the resumed stream is deterministic, and
		// dedupe makes the retry safe.
		return nil, ctx.Err() == nil, err
	}
	return nil, ctx.Err() == nil, &RemoteError{Message: "stream ended without a done event"}
}
