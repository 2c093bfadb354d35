// Client side of the daemon API: a thin JSON/HTTP wrapper used by the
// tests, the CI smoke, and anything else that wants to talk to a
// running racedetd without hand-rolling requests.
package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Unavailable is the load-shed / draining response: the daemon
// refused the job and (for load shedding) suggested when to retry.
type Unavailable struct {
	// Reason is the daemon's refusal text ("draining", queue-full...).
	Reason string
	// RetryAfter is the parsed Retry-After hint (0 when absent, i.e.
	// the daemon is draining rather than momentarily busy).
	RetryAfter time.Duration
}

func (e *Unavailable) Error() string {
	if e.RetryAfter > 0 {
		return fmt.Sprintf("racedetd unavailable: %s (retry after %v)", e.Reason, e.RetryAfter)
	}
	return "racedetd unavailable: " + e.Reason
}

// Client talks to one racedetd instance.
type Client struct {
	// Base is the daemon's base URL, e.g. "http://127.0.0.1:7421".
	Base string
	// HTTP overrides the transport (nil = http.DefaultClient).
	HTTP *http.Client
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// Analyze submits one job and waits for its verdict. A load-shed or
// draining refusal returns *Unavailable; a bad request or daemon-side
// failure returns a plain error.
func (c *Client) Analyze(req JobRequest) (*JobResult, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	resp, err := c.http().Post(c.Base+"/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		var out JobResult
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			return nil, fmt.Errorf("decoding job result: %w", err)
		}
		return &out, nil
	case http.StatusServiceUnavailable:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		u := &Unavailable{Reason: strings.TrimSpace(string(msg))}
		if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil {
			u.RetryAfter = time.Duration(ra) * time.Second
		}
		return nil, u
	default:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("racedetd: %s: %s", resp.Status, strings.TrimSpace(string(msg)))
	}
}

// Health returns nil while the daemon admits jobs and *Unavailable
// once it is draining.
func (c *Client) Health() error {
	resp, err := c.http().Get(c.Base + "/healthz")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		return nil
	}
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	return &Unavailable{Reason: strings.TrimSpace(string(msg))}
}

// Metrics scrapes /metrics into a name → value map (names without the
// racedetd_ prefix).
func (c *Client) Metrics() (map[string]int64, error) {
	resp, err := c.http().Get(c.Base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("metrics: %s", resp.Status)
	}
	out := make(map[string]int64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			return nil, fmt.Errorf("metrics: bad line %q", line)
		}
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: bad value in %q", line)
		}
		out[strings.TrimPrefix(name, "racedetd_")] = n
	}
	return out, sc.Err()
}
