package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// outcome is what happened to one request.
type outcome struct {
	Status int
	Err    error
	Body   []byte
	// Latency runs from the request's scheduled send time to the last byte
	// of the response, so time a request spent waiting for a free
	// connection behind a slow one counts against the server.
	Latency time.Duration
	// Lag is how late the generator sent the request: send time minus
	// scheduled time. It grows when every connection is still busy with
	// earlier requests, i.e. when the offered load falls behind schedule.
	Lag time.Duration
}

// requestTimeout bounds one request, so a hung server fails the run well
// inside its time limit instead of stalling it.
const requestTimeout = 30 * time.Second

// client sends requests over at most `conns` persistent connections.
type client struct {
	base  string
	conns int
	http  *http.Client
}

func newClient(base string, conns int) *client {
	return &client{base: base, conns: conns, http: &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
		Timeout: requestTimeout,
	}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// do sends one request and reads the whole reply. traceID, when non-empty,
// is sent as X-Request-Id so the server's spans join the request.
func (c *client) do(ctx context.Context, r *request, traceID string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+r.Path, bytes.NewReader(r.Body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", r.ContentType)
	if traceID != "" {
		req.Header.Set("X-Request-Id", traceID)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// get fetches a GET endpoint's body, failing on any status but 200.
func (c *client) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d: %s", path, resp.StatusCode, body)
	}
	return body, err
}

// sequential sends reqs one after another, ignoring their schedule.
func (c *client) sequential(ctx context.Context, reqs []request) []outcome {
	out := make([]outcome, len(reqs))
	for i := range reqs {
		t0 := time.Now()
		out[i].Status, out[i].Body, out[i].Err = c.do(ctx, &reqs[i], "")
		out[i].Latency = time.Since(t0)
	}
	return out
}

// openLoop sends reqs on their schedule, measured from start, from c.conns
// workers that each own one connection. A request is sent at its scheduled
// time whether or not earlier ones have been answered; when every worker is
// busy it goes out as soon as one frees, and its latency still counts from
// the schedule. traceID names the X-Request-Id of request i ("" = none).
func (c *client) openLoop(ctx context.Context, reqs []request, start time.Time, traceID func(int) string) []outcome {
	out := make([]outcome, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < c.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				due := start.Add(reqs[i].At)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				o := &out[i]
				o.Lag = time.Since(due)
				o.Status, o.Body, o.Err = c.do(ctx, &reqs[i], traceID(i))
				o.Latency = time.Since(due)
			}
		}()
	}
	wg.Wait()
	return out
}

// create POSTs a resource-creating request and expects 201 Created.
func (c *client) create(ctx context.Context, path, contentType string, body []byte) error {
	r := request{Path: path, ContentType: contentType, Body: body}
	status, reply, err := c.do(ctx, &r, "")
	if err == nil && status != http.StatusCreated {
		err = fmt.Errorf("status %d: %.300s", status, reply)
	}
	if err != nil {
		return fmt.Errorf("POST %.60s: %w", path, err)
	}
	return nil
}
