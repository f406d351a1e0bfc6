// Package client is the retrying HTTP client for the jobgraphd serving
// API. The daemon sheds load honestly — 429 + Retry-After on a full
// admission queue, 503 while draining — and this client is the other
// half of that contract: jittered exponential backoff that honors
// Retry-After, retries transient transport failures, and gives up only
// when the caller's context does.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Config parameterizes a Client. The zero value plus a Base URL works.
type Config struct {
	// Base is the daemon's root URL, e.g. "http://localhost:8847".
	Base string
	// HTTP is the underlying client (default: a 30s-timeout client).
	HTTP *http.Client
	// MaxAttempts bounds tries per request, first attempt included
	// (default 8; the caller's context can cut retries short anytime).
	MaxAttempts int
	// BaseDelay is the first backoff step (default 50ms); each retry
	// doubles it up to MaxDelay (default 5s). A server Retry-After
	// overrides the computed delay when longer.
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// Seed makes the jitter deterministic for tests (0: seeded from the
	// clock).
	Seed int64
}

// Client issues requests against a jobgraphd with retry-on-backpressure
// semantics. Safe for concurrent use.
type Client struct {
	cfg  Config
	base string

	mu  sync.Mutex
	rng *rand.Rand
}

// StatusError is a terminal non-2xx response (one this client will not
// retry, or the last attempt's failure).
type StatusError struct {
	Status int
	Body   string

	// serverDelay carries the server's Retry-After through the retry
	// loop between attempts.
	serverDelay time.Duration
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("client: HTTP %d: %s", e.Status, strings.TrimSpace(e.Body))
}

// New builds a Client for the daemon at cfg.Base.
func New(cfg Config) (*Client, error) {
	if cfg.Base == "" {
		return nil, fmt.Errorf("client: Base URL required")
	}
	if cfg.HTTP == nil {
		cfg.HTTP = &http.Client{Timeout: 30 * time.Second}
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 8
	}
	if cfg.BaseDelay <= 0 {
		cfg.BaseDelay = 50 * time.Millisecond
	}
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = 5 * time.Second
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	return &Client{
		cfg:  cfg,
		base: strings.TrimRight(cfg.Base, "/"),
		rng:  rand.New(rand.NewSource(seed)),
	}, nil
}

// retryable reports whether a status code is worth another attempt:
// explicit backpressure (429), drain/overload (503), and transient
// gateway failures (502, 504).
func retryable(status int) bool {
	switch status {
	case http.StatusTooManyRequests, http.StatusServiceUnavailable,
		http.StatusBadGateway, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// backoff computes the sleep before attempt n (0-based): jittered
// exponential, floored by the server's Retry-After when present.
func (c *Client) backoff(attempt int, serverDelay time.Duration) time.Duration {
	d := c.cfg.BaseDelay << attempt
	if d > c.cfg.MaxDelay || d <= 0 {
		d = c.cfg.MaxDelay
	}
	// Full jitter in [d/2, d): desynchronizes a fleet of retriers so a
	// saturated queue is not immediately re-saturated in lockstep.
	c.mu.Lock()
	jittered := d/2 + time.Duration(c.rng.Int63n(int64(d/2)+1))
	c.mu.Unlock()
	if serverDelay > jittered {
		return serverDelay
	}
	return jittered
}

// parseRetryAfter reads a Retry-After header (seconds form only — the
// daemon never sends HTTP dates).
func parseRetryAfter(h string) time.Duration {
	if h == "" {
		return 0
	}
	secs, err := strconv.Atoi(strings.TrimSpace(h))
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// Do POSTs (or GETs, when body is nil and method says so) JSON to path,
// decodes a 2xx response into out (unless nil), and retries transport
// errors and retryable statuses with jittered exponential backoff until
// MaxAttempts or ctx expiry. The request body is re-marshaled cheaply
// per attempt from the already-encoded bytes.
func (c *Client) Do(ctx context.Context, method, path string, body, out any) error {
	var payload []byte
	if body != nil {
		var err error
		payload, err = json.Marshal(body)
		if err != nil {
			return fmt.Errorf("client: marshal request: %w", err)
		}
	}
	var lastErr error
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			var ra time.Duration
			var se *StatusError
			if errors.As(lastErr, &se) {
				ra = se.serverDelay
			}
			select {
			case <-time.After(c.backoff(attempt-1, ra)):
			case <-ctx.Done():
				return fmt.Errorf("client: %w (last error: %v)", ctx.Err(), lastErr)
			}
		}
		var rdr io.Reader
		if payload != nil {
			rdr = bytes.NewReader(payload)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.base+path, rdr)
		if err != nil {
			return fmt.Errorf("client: build request: %w", err)
		}
		if payload != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := c.cfg.HTTP.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				return fmt.Errorf("client: %w (last error: %v)", ctx.Err(), err)
			}
			lastErr = fmt.Errorf("client: %s %s: %w", method, path, err)
			continue // transport errors are always retryable
		}
		data, readErr := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
		switch {
		case resp.StatusCode >= 200 && resp.StatusCode < 300:
			if readErr != nil {
				lastErr = fmt.Errorf("client: read response: %w", readErr)
				continue
			}
			if out == nil {
				return nil
			}
			if err := json.Unmarshal(data, out); err != nil {
				return fmt.Errorf("client: decode response: %w", err)
			}
			return nil
		case retryable(resp.StatusCode):
			lastErr = &StatusError{
				Status:      resp.StatusCode,
				Body:        string(data),
				serverDelay: parseRetryAfter(resp.Header.Get("Retry-After")),
			}
			continue
		default:
			return &StatusError{Status: resp.StatusCode, Body: string(data)}
		}
	}
	return fmt.Errorf("client: giving up after %d attempts: %w", c.cfg.MaxAttempts, lastErr)
}

// Post is Do with POST.
func (c *Client) Post(ctx context.Context, path string, body, out any) error {
	return c.Do(ctx, http.MethodPost, path, body, out)
}

// Get is Do with GET and no body.
func (c *Client) Get(ctx context.Context, path string, out any) error {
	return c.Do(ctx, http.MethodGet, path, nil, out)
}
