package omd

// Test-only handles on server internals, consumed by the external omd_test
// package (which must live outside this package to import the client
// without a cycle).

import (
	"context"
	"time"
)

// SetExecGate installs a hook that runs at the top of every execution; set
// it before the first submission (the queue-channel handoff orders the
// write for the workers).
func (s *Server) SetExecGate(f func(key string)) { s.execGate = f }

// PrewarmLib compiles the runtime library now, so a gated test's execution
// reaches the interesting phase quickly after release.
func (s *Server) PrewarmLib() error {
	_, err := s.libObjects()
	return err
}

// ResolveKey runs spec validation and returns the coalescing key.
func ResolveKey(js *JobSpec) (string, error) {
	rs, err := js.resolve()
	if err != nil {
		return "", err
	}
	return rs.key, nil
}

// SubmitProbe resolves the spec and admits it without waiting, reporting
// whether it was served from the completed-result memo. It exposes the warm
// submit path directly — no HTTP — so tests can pin its allocation cost.
func (s *Server) SubmitProbe(js *JobSpec) (bool, error) {
	rs, err := js.resolve()
	if err != nil {
		return false, err
	}
	rec, _, err := s.submit(rs, false, "", time.Time{})
	if err != nil {
		return false, err
	}
	return rec.memoHit, nil
}

// ExecuteProbe resolves the spec and returns a function that runs one
// execution of it directly — no admission, memo lookup, trace or HTTP —
// retains its result as a finished flight does, and reports the result's
// image bytes and whether the image index served them, so tests can pin
// what an execution costs apart from resolving its spec.
func (s *Server) ExecuteProbe(js *JobSpec) (func(context.Context) ([]byte, bool, error), error) {
	rs, err := js.resolve()
	if err != nil {
		return nil, err
	}
	return func(ctx context.Context) ([]byte, bool, error) {
		res, err := s.execute(ctx, rs, nil)
		if err != nil {
			return nil, false, err
		}
		s.mu.Lock()
		s.retain(rs.key, res)
		s.mu.Unlock()
		return res.image, res.imageCacheHit, nil
	}, nil
}

// Submission body bounds, for the tests that probe them.
const (
	MaxSubmitBody  = maxSubmitBody
	MaxObjectParts = maxObjectParts
	MinUploadRate  = minUploadRate
)
