package om

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// OptionsVersion tags the canonical serialized form of a resolved option
// set. Bump it only on an incompatible schema change; readers reject any
// other version string.
const OptionsVersion = "om-options/v2"

// configJSON is the wire form of config. The field set and order are part
// of the format: the golden test pins the exact bytes, so any drift between
// what Run accepts and what serializes is a test failure, not a silent
// skew. Metrics registries and profiles cannot be serialized here; they
// are attached at run time (profiles travel as their own om-profile/v1
// document).
type configJSON struct {
	Version  string    `json:"version"`
	Level    string    `json:"level"`
	Schedule bool      `json:"schedule"`
	Ablation *Ablation `json:"ablation,omitempty"`
	Trace    bool      `json:"trace"`
}

// ParseLevel parses the wire name of an optimization level: "none",
// "simple", or "full".
func ParseLevel(s string) (Level, error) {
	switch s {
	case "none":
		return LevelNone, nil
	case "simple":
		return LevelSimple, nil
	case "full":
		return LevelFull, nil
	}
	return 0, fmt.Errorf("om: unknown level %q (want none, simple, or full)", s)
}

// wireName is the level's serialized name (the inverse of ParseLevel;
// String() keeps its human-facing "om-full" form for tables).
func (l Level) wireName() (string, error) {
	switch l {
	case LevelNone:
		return "none", nil
	case LevelSimple:
		return "simple", nil
	case LevelFull:
		return "full", nil
	}
	return "", fmt.Errorf("om: level %d has no serialized form", int(l))
}

// MarshalJSON serializes the resolved option set in its canonical form.
func (c *config) MarshalJSON() ([]byte, error) {
	if c.metrics != nil {
		return nil, fmt.Errorf("om: WithMetrics is not serializable; attach the registry at run time")
	}
	if c.profile != nil {
		return nil, fmt.Errorf("om: WithProfile is not serializable; ship the om-profile document separately")
	}
	lvl, err := c.level.wireName()
	if err != nil {
		return nil, err
	}
	w := configJSON{
		Version:  OptionsVersion,
		Level:    lvl,
		Schedule: c.schedule,
		Trace:    c.trace,
	}
	if c.ablation != (Ablation{}) {
		ab := c.ablation
		w.Ablation = &ab
	}
	return json.Marshal(&w)
}

// UnmarshalJSON parses the canonical form back into a resolved config. It
// is strict: unknown fields and unknown versions are errors, and an
// ablation is only valid at level full (WithAblation implies it). The
// version is checked before the fields, so a document of another version
// fails naming this one instead of tripping over a field it dropped.
func (c *config) UnmarshalJSON(data []byte) error {
	var head struct {
		Version string `json:"version"`
	}
	if err := json.Unmarshal(data, &head); err != nil {
		return fmt.Errorf("om: options: %w", err)
	}
	if head.Version != OptionsVersion {
		return fmt.Errorf("om: options version %q, want %q", head.Version, OptionsVersion)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var w configJSON
	if err := dec.Decode(&w); err != nil {
		return fmt.Errorf("om: options: %w", err)
	}
	lvl, err := ParseLevel(w.Level)
	if err != nil {
		return err
	}
	if w.Ablation != nil && *w.Ablation != (Ablation{}) && lvl != LevelFull {
		return fmt.Errorf("om: options: ablation requires level full, got %q", w.Level)
	}
	c.level = lvl
	c.schedule = w.Schedule
	c.trace = w.Trace
	c.ablation = Ablation{}
	if w.Ablation != nil {
		c.ablation = *w.Ablation
	}
	return nil
}

// MarshalOptions resolves an option list exactly the way Run does and
// returns its canonical serialized form. Two option lists that Run treats
// identically marshal to identical bytes, so the result doubles as a
// content-address component for job coalescing. Options that carry live
// objects (WithMetrics, WithProfile) are not part of the form, and
// MarshalOptions rejects them.
func MarshalOptions(opts ...Option) ([]byte, error) {
	cfg := config{level: LevelFull}
	for _, o := range opts {
		o(&cfg)
	}
	return cfg.MarshalJSON()
}

// UnmarshalOptions parses a canonical form produced by MarshalOptions and
// returns an option list that makes Run behave identically. Round trip is
// exact: MarshalOptions(UnmarshalOptions(d)...) == d for any valid d.
func UnmarshalOptions(data []byte) ([]Option, error) {
	var cfg config
	if err := cfg.UnmarshalJSON(data); err != nil {
		return nil, err
	}
	opts := []Option{WithLevel(cfg.level), WithSchedule(cfg.schedule)}
	if cfg.ablation != (Ablation{}) {
		opts = append(opts, WithAblation(cfg.ablation))
	}
	if cfg.trace {
		opts = append(opts, WithTrace())
	}
	return opts, nil
}

// TraceRequested reports whether Run, given opts, collects the decision
// journal (WithTrace), without serializing the options.
func TraceRequested(opts ...Option) bool {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	return cfg.trace
}
