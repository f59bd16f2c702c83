package experiment

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"faultstudy/internal/obsv"
	"faultstudy/internal/simenv"
)

// TestRecoverEpisode drives the shared episode engine with scripted actions
// and retries: the op is served on the first attempt, on the second, or not
// at all. It pins the recorded span sequence, the single detection charge
// ahead of the first action, and the nil-recorder path.
func TestRecoverEpisode(t *testing.T) {
	const key = "httpd/null-deref"
	us := func(d time.Duration) int64 { return obsv.US(time.Second + d) }
	action := func(attempt int, at time.Duration) obsv.Span {
		return obsv.Span{Kind: obsv.SpanAction, Rung: "microreboot", Attempt: attempt,
			StartUS: us(at), EndUS: us(at), Outcome: "ok", Component: "worker"}
	}
	failed := func(attempt int, at time.Duration) obsv.Span {
		return obsv.Span{Kind: obsv.SpanRetry, Rung: "microreboot", Attempt: attempt,
			StartUS: us(at), EndUS: us(at), Outcome: "fail", Note: fmt.Sprintf("retry %d failed", attempt)}
	}
	activation := obsv.Span{Kind: obsv.SpanActivation, StartUS: us(0), EndUS: us(0), Note: "boom"}
	// Detection takes 100ms and every action 1ms, so attempt n acts at
	// 100ms + n·1ms after the failure.
	act1, act2 := detectLatency+time.Millisecond, detectLatency+2*time.Millisecond

	for _, tc := range []struct {
		name      string
		failures  int // retries that fail before one serves
		servedOn  int
		wantSpans []obsv.Span
		wantCalls []string
	}{
		{"served on attempt 1", 0, 1,
			[]obsv.Span{activation, action(1, act1)},
			[]string{"detect", "act 1", "retry"}},
		{"served on attempt 2", 1, 2,
			[]obsv.Span{activation, action(1, act1), failed(1, act1), action(2, act2)},
			[]string{"detect", "act 1", "retry", "act 2", "retry"}},
		{"abandoned after 2 attempts", 2, 0,
			[]obsv.Span{activation, action(1, act1), failed(1, act1), action(2, act2), failed(2, act2)},
			[]string{"detect", "act 1", "retry", "act 2", "retry"}},
	} {
		for _, rec := range []*obsv.Recorder{obsv.NewRecorder(), nil} {
			env := simenv.New(1)
			env.Advance(time.Second)
			var calls []string
			retries := 0
			e := recoverer{env: env, rec: rec, key: key, rung: "microreboot",
				detect: func() {
					calls = append(calls, "detect")
					env.Advance(detectLatency)
				},
				act: func(attempt int) string {
					calls = append(calls, fmt.Sprintf("act %d", attempt))
					env.Advance(time.Millisecond)
					return "worker"
				}}
			retry := func() error {
				calls = append(calls, "retry")
				if retries++; retries <= tc.failures {
					return fmt.Errorf("retry %d failed", retries)
				}
				return nil
			}

			start, servedOn := e.recoverOp("GET /", errors.New("boom"), retry)
			if start != time.Second || servedOn != tc.servedOn {
				t.Errorf("%s (recorder %v): recoverOp = (%v, %d), want (1s, %d)",
					tc.name, rec != nil, start, servedOn, tc.servedOn)
			}
			if !reflect.DeepEqual(calls, tc.wantCalls) {
				t.Errorf("%s (recorder %v): calls = %q, want %q", tc.name, rec != nil, calls, tc.wantCalls)
			}
			if rec == nil {
				continue
			}
			rec.End(env.Monotonic(), obsv.OutcomeLost, "microreboot")
			eps := rec.Episodes()
			if len(eps) != 1 || eps[0].Op != "GET /" || eps[0].Mechanism != key {
				t.Fatalf("%s: episodes = %+v, want one GET / episode under %s", tc.name, eps, key)
			}
			if !reflect.DeepEqual(eps[0].Spans, tc.wantSpans) {
				t.Errorf("%s: spans =\n%+v\nwant\n%+v", tc.name, eps[0].Spans, tc.wantSpans)
			}
		}
	}
}
