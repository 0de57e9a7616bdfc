package serve

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"twodprof/internal/core"
	"twodprof/internal/engine"
	"twodprof/internal/trace"
)

// regEngine builds a minimal inline engine for lifecycle tests (bias
// metric: no predictor needed).
func regEngine(t *testing.T) *engine.Engine {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.SliceSize = 100
	cfg.ExecThreshold = 2
	cfg.Metric = core.MetricBias
	eng, err := engine.New(cfg, engine.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func feed(eng *engine.Engine, n int) {
	for i := 0; i < n; i++ {
		eng.Branch(trace.PC(4096+i%7*4), i%2 == 0)
	}
}

// checkpoint returns the finished session's resident checkpoint.
func checkpoint(t *testing.T, s *Session) *core.Snapshot {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.snap == nil {
		t.Fatalf("session %s holds no checkpoint", s.ID)
	}
	return s.snap
}

// TestBeginGeneratedIDSkipsTaken: a client that registered "s-1"
// itself must not collide with the generator — Begin("") walks past
// taken ids instead of erroring.
func TestBeginGeneratedIDSkipsTaken(t *testing.T) {
	r := NewRegistry(10)
	if _, err := r.Begin("s-1", "", regEngine(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Begin("s-3", "", regEngine(t)); err != nil {
		t.Fatal(err)
	}
	s, err := r.Begin("", "", regEngine(t))
	if err != nil {
		t.Fatalf("generated id collided with user-supplied ones: %v", err)
	}
	if s.ID != "s-2" {
		t.Errorf("first generated id = %q, want s-2", s.ID)
	}
	s, err = r.Begin("", "", regEngine(t))
	if err != nil {
		t.Fatal(err)
	}
	if s.ID != "s-4" {
		t.Errorf("second generated id = %q, want s-4 (s-3 is taken)", s.ID)
	}
}

// TestBeginRespectsReservations: ids reserved outside the registry
// (session logs on disk) are skipped by the generator and rejected for
// user-supplied ids.
func TestBeginRespectsReservations(t *testing.T) {
	r := NewRegistry(10)
	r.Reserved = func(id string) bool { return id == "s-1" || id == "old" }
	s, err := r.Begin("", "", regEngine(t))
	if err != nil {
		t.Fatal(err)
	}
	if s.ID != "s-2" {
		t.Errorf("generated id = %q, want s-2 (s-1 is reserved)", s.ID)
	}
	if _, err := r.Begin("old", "", regEngine(t)); err == nil {
		t.Error("Begin accepted an id reserved in the session store")
	}
}

func TestBeginDuplicateUserID(t *testing.T) {
	r := NewRegistry(10)
	if _, err := r.Begin("mine", "", regEngine(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Begin("mine", "", regEngine(t)); err == nil {
		t.Error("Begin accepted a duplicate user-supplied id")
	}
}

// TestEvictionIgnoresActiveSessions: the retention cap is documented
// as "at most cap finished sessions" — a burst of active sessions must
// not push finished ones out.
func TestEvictionIgnoresActiveSessions(t *testing.T) {
	r := NewRegistry(2)
	var finished []*Session
	for i := 0; i < 2; i++ {
		s, err := r.Begin(fmt.Sprintf("fin-%d", i), "", regEngine(t))
		if err != nil {
			t.Fatal(err)
		}
		feed(s.eng, 10)
		if _, err := s.complete(); err != nil {
			t.Fatal(err)
		}
		finished = append(finished, s)
	}
	// Three concurrent active sessions: under the buggy accounting
	// (5 sessions > cap 2) these evicted the finished pair.
	for i := 0; i < 3; i++ {
		if _, err := r.Begin(fmt.Sprintf("act-%d", i), "", regEngine(t)); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range finished {
		if r.Get(s.ID) == nil {
			t.Errorf("finished session %s evicted by active sessions", s.ID)
		}
	}

	// The cap still bites on finished sessions: finish two more (the
	// sweep runs on the next Begin) and the two oldest finished must go,
	// actives untouched.
	for i := 2; i < 4; i++ {
		s, err := r.Begin(fmt.Sprintf("fin-%d", i), "", regEngine(t))
		if err != nil {
			t.Fatal(err)
		}
		feed(s.eng, 10)
		if _, err := s.complete(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.Begin("act-3", "", regEngine(t)); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"fin-0", "fin-1"} {
		if r.Get(id) != nil {
			t.Errorf("session %s survived past the retention cap", id)
		}
	}
	for _, id := range []string{"fin-2", "fin-3", "act-0", "act-1", "act-2", "act-3"} {
		if r.Get(id) == nil {
			t.Errorf("session %s missing after eviction", id)
		}
	}
	// Abort the actives so their engines stop cleanly.
	for i := 0; i < 4; i++ {
		r.Get(fmt.Sprintf("act-%d", i)).eng.Abort()
	}
}

// TestNewRegistryClampsCap: a non-positive cap retains at least the
// most recent finished session instead of evicting everything (or
// worse) on every Begin.
func TestNewRegistryClampsCap(t *testing.T) {
	for _, cap := range []int{0, -3} {
		r := NewRegistry(cap)
		for i := 0; i < 2; i++ {
			s, err := r.Begin(fmt.Sprintf("s%d", i), "", regEngine(t))
			if err != nil {
				t.Fatal(err)
			}
			feed(s.eng, 10)
			if _, err := s.complete(); err != nil {
				t.Fatal(err)
			}
		}
		// The sweep runs on the next Begin.
		trigger, err := r.Begin("trigger", "", regEngine(t))
		if err != nil {
			t.Fatal(err)
		}
		if r.Get("s1") == nil {
			t.Errorf("cap %d: most recent finished session not retained", cap)
		}
		if r.Get("s0") != nil {
			t.Errorf("cap %d: clamped cap of 1 retained two sessions", cap)
		}
		trigger.eng.Abort()
	}
}

// TestLifecycleSingleShot walks the terminal-transition matrix: each
// session finishes exactly once, and nothing after that first
// transition disturbs its outcome.
func TestLifecycleSingleShot(t *testing.T) {
	t.Run("fail then fail keeps the first reason", func(t *testing.T) {
		r := NewRegistry(4)
		s, err := r.Begin("", "", regEngine(t))
		if err != nil {
			t.Fatal(err)
		}
		feed(s.eng, 10)
		s.fail(errors.New("client hung up"))
		s.fail(errors.New("drain timeout"))
		if s.State() != SessionFailed {
			t.Fatalf("state = %v, want failed", s.State())
		}
		s.mu.Lock()
		reason := s.reason
		s.mu.Unlock()
		if reason != "client hung up" {
			t.Errorf("reason = %q; a later failure overwrote the original", reason)
		}
	})

	t.Run("complete after fail reports the original failure", func(t *testing.T) {
		r := NewRegistry(4)
		s, err := r.Begin("", "", regEngine(t))
		if err != nil {
			t.Fatal(err)
		}
		feed(s.eng, 10)
		s.fail(errors.New("stream truncated"))
		cp := checkpoint(t, s)
		partial, err := s.Report()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.complete(); err == nil {
			t.Fatal("complete() succeeded on a failed session")
		} else if !strings.Contains(err.Error(), "stream truncated") {
			t.Errorf("complete() error %q lost the original reason", err)
		}
		if s.State() != SessionFailed {
			t.Errorf("state = %v after complete-on-failed, want failed", s.State())
		}
		after, err := s.Report()
		if err != nil {
			t.Fatal(err)
		}
		if checkpoint(t, s) != cp {
			t.Error("complete-on-failed replaced the checkpoint")
		}
		if !bytes.Equal(marshalReport(t, after), marshalReport(t, partial)) {
			t.Error("complete-on-failed disturbed the preserved partial report")
		}
	})

	t.Run("complete is idempotent", func(t *testing.T) {
		r := NewRegistry(4)
		s, err := r.Begin("", "", regEngine(t))
		if err != nil {
			t.Fatal(err)
		}
		feed(s.eng, 10)
		first, err := s.complete()
		if err != nil {
			t.Fatal(err)
		}
		cp := checkpoint(t, s)
		second, err := s.complete()
		if err != nil {
			t.Fatalf("second complete(): %v", err)
		}
		if checkpoint(t, s) != cp {
			t.Error("second complete() replaced the checkpoint")
		}
		if !bytes.Equal(marshalReport(t, first), marshalReport(t, second)) {
			t.Error("second complete() returned a different report than the first")
		}
	})

	t.Run("fail after complete is a no-op", func(t *testing.T) {
		r := NewRegistry(4)
		s, err := r.Begin("", "", regEngine(t))
		if err != nil {
			t.Fatal(err)
		}
		feed(s.eng, 10)
		rep, err := s.complete()
		if err != nil {
			t.Fatal(err)
		}
		cp := checkpoint(t, s)
		s.fail(errors.New("late failure"))
		if s.State() != SessionDone {
			t.Errorf("state = %v after fail-on-done, want done", s.State())
		}
		got, err := s.Report()
		if err != nil {
			t.Fatal(err)
		}
		if checkpoint(t, s) != cp {
			t.Error("fail-on-done replaced the checkpoint")
		}
		if !bytes.Equal(marshalReport(t, got), marshalReport(t, rep)) {
			t.Error("fail-on-done replaced the fixed final report")
		}
	})
}

// TestFinishedSessionIsItsCheckpoint: the terminal transition releases
// the engine, and the finished session's /v1/report and /v1/snapshot
// bytes are the ones its engine served just before the transition.
func TestFinishedSessionIsItsCheckpoint(t *testing.T) {
	for _, tc := range []struct {
		name string
		end  func(*Session) error
	}{
		{"complete", func(s *Session) error { _, err := s.complete(); return err }},
		{"fail", func(s *Session) error { s.fail(errors.New("client hung up")); return nil }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := startServer(t, testConfig())
			s, err := srv.registry.Begin("fin", "", regEngine(t))
			if err != nil {
				t.Fatal(err)
			}
			// Whole slices only: the inline engine has nothing pending and
			// Finish no partial slice to flush, so the live endpoints
			// already serve the final state.
			feed(s.eng, 1000)
			read := func(path string) []byte {
				t.Helper()
				code, body := get(t, srv, path)
				if code != 200 {
					t.Fatalf("%s: %d: %s", path, code, body)
				}
				return body
			}
			wantRep := read("/v1/report?session=fin")
			wantSnap := read("/v1/snapshot?session=fin")
			if err := tc.end(s); err != nil {
				t.Fatal(err)
			}
			s.mu.Lock()
			eng := s.eng
			s.mu.Unlock()
			if eng != nil {
				t.Error("finished session still holds its engine")
			}
			if !bytes.Equal(read("/v1/report?session=fin"), wantRep) {
				t.Error("/v1/report changed at the terminal transition")
			}
			if !bytes.Equal(read("/v1/snapshot?session=fin"), wantSnap) {
				t.Error("/v1/snapshot changed at the terminal transition")
			}
		})
	}
}
