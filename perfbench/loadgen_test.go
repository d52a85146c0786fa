package main

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestOpenLoopChargesStall stalls one response of a stub server and
// checks that every request due during the stall reports latency that
// includes it, measured from when the generator queued it, while the
// generator itself stays on schedule and reports the wait as client
// queue time. A closed-loop measurement (from when a connection picked
// the request up) would hide the stall from those requests.
func TestOpenLoopChargesStall(t *testing.T) {
	const (
		n        = 80
		interval = 5 * time.Millisecond
		stallAt  = 10
		stall    = 200 * time.Millisecond
	)
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == stallAt+1 {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()
	client := srv.Client()

	outs := runOpenLoop(context.Background(), n, func(i int) time.Duration { return time.Duration(i) * interval }, 1,
		func(ctx context.Context, i int) error {
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL, nil)
			if err != nil {
				return err
			}
			resp, err := client.Do(req)
			if err != nil {
				return err
			}
			io.Copy(io.Discard, resp.Body)
			return resp.Body.Close()
		})

	for i, o := range outs {
		if o.Err != nil {
			t.Fatalf("request %d: %v", i, o.Err)
		}
	}
	if got := outs[stallAt].Latency(); got < stall {
		t.Fatalf("stalled request latency %v, want >= %v", got, stall)
	}
	// With one connection nothing can start before the stall ends, so a
	// request due k intervals after the stalled one waits stall - k*interval,
	// less however late the generator queued it.
	for i := stallAt + 1; i < n && time.Duration(i-stallAt)*interval < stall; i++ {
		want := stall - time.Duration(i-stallAt)*interval - outs[i].Late()
		if got := outs[i].Latency(); got < want {
			t.Errorf("request %d due during the stall: latency %v, want >= %v", i, got, want)
		}
	}
	k := stallAt + 5
	if service := outs[k].Done - outs[k].Start; service >= stall/2 {
		t.Fatalf("request %d service time %v: the stub stalled more than once", k, service)
	}
	late, queued := genHealth(outs)
	if late >= ms(stall/2) {
		t.Errorf("generator lateness %.1f ms: the generator waited on the stalled connection", late)
	}
	if queued < ms(stall/2) {
		t.Errorf("client queue p99 %.1f ms, want the stall to show as queue time", queued)
	}
}
