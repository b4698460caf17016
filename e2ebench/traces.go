package main

import (
	"context"
	"encoding/json"
	"sync"
	"time"
)

// traceView is the subset of GET /v1/debug/traces the benchmark reads.
type traceView struct {
	ID    string     `json:"id"`
	Spans []spanView `json:"spans"`
}

type spanView struct {
	Name       string         `json:"name"`
	StartMS    float64        `json:"start_ms"`
	DurationMS float64        `json:"duration_ms"`
	Attrs      map[string]any `json:"attrs"`
}

func (s spanView) interval() interval {
	start := time.Duration(s.StartMS * float64(time.Millisecond))
	return interval{start, start + time.Duration(s.DurationMS*float64(time.Millisecond))}
}

// harvester polls the server's trace ring, which holds only the newest 256
// traces, often enough to keep every trace of the requests it is told to
// expect; traces it never saw are counted as lost.
type harvester struct {
	c    *client
	mu   sync.Mutex
	seen map[string]traceView
}

func newHarvester(c *client) *harvester {
	return &harvester{c: c, seen: make(map[string]traceView)}
}

func (h *harvester) poll(ctx context.Context) error {
	body, err := h.c.get(ctx, "/v1/debug/traces")
	if err != nil {
		return err
	}
	var page struct {
		Traces []traceView `json:"traces"`
	}
	if err := json.Unmarshal(body, &page); err != nil {
		return err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, t := range page.Traces {
		h.seen[t.ID] = t
	}
	return nil
}

// harvestEvery is the poll interval: at the workloads' request rates the
// ring turns over in two seconds or more.
const harvestEvery = 500 * time.Millisecond

// start polls in the background from the time from on. The returned func
// stops the poller after one last poll, waits for it, and returns its
// error; calling it again returns the same error.
func (h *harvester) start(ctx context.Context, from time.Time) func() error {
	stop, errc := make(chan struct{}), make(chan error, 1)
	go func() { errc <- h.run(ctx, from, harvestEvery, stop) }()
	var (
		once sync.Once
		err  error
	)
	return func() error {
		once.Do(func() { close(stop); err = <-errc })
		return err
	}
}

// run polls every interval from the time from until stop is closed, then
// once more.
func (h *harvester) run(ctx context.Context, from time.Time, every time.Duration, stop <-chan struct{}) error {
	select {
	case <-time.After(time.Until(from)):
	case <-stop:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-stop:
			return h.poll(ctx)
		case <-t.C:
			if err := h.poll(ctx); err != nil {
				return err
			}
		}
	}
}

// serverLayers aggregates the server's spans over the traced requests.
type serverLayers struct {
	ops, lost                      int
	handler, queue, governor, self []float64 // ms per op
	walFsync                       []float64 // ms per wal_fsync span
}

func (h *harvester) layers(ids []string) serverLayers {
	h.mu.Lock()
	defer h.mu.Unlock()
	var sl serverLayers
	for _, id := range ids {
		t, ok := h.seen[id]
		if !ok {
			sl.lost++
			continue
		}
		sl.ops++
		var handler interval
		var children []interval
		var queue, governor time.Duration
		for _, sp := range t.Spans {
			iv := sp.interval()
			switch sp.Name {
			case "handler":
				handler = iv
				continue
			case "queue_wait":
				queue += iv.End - iv.Start
				if sp.Attrs["stage"] == "governor" {
					governor += iv.End - iv.Start
				}
			case "wal_fsync":
				sl.walFsync = append(sl.walFsync, sp.DurationMS)
			}
			children = append(children, iv)
		}
		sl.handler = append(sl.handler, ms(handler.End-handler.Start))
		sl.queue = append(sl.queue, ms(queue))
		sl.governor = append(sl.governor, ms(governor))
		sl.self = append(sl.self, ms(selfTime(handler, children)))
	}
	return sl
}
