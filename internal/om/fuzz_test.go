package om

import (
	"bytes"
	"testing"
)

// FuzzUnmarshalOptions: the om-options parser must never panic, and
// anything it accepts must round-trip through the canonical form exactly
// (the coalescing key in omd depends on that bijection).
func FuzzUnmarshalOptions(f *testing.F) {
	seed := func(opts ...Option) {
		data, err := MarshalOptions(opts...)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	seed()
	seed(WithLevel(LevelNone))
	seed(WithLevel(LevelSimple), WithTrace())
	seed(WithSchedule(true), WithAblation(Ablation{NoGATReduction: true}))
	f.Add([]byte(`{"version":"om-options/v2"}`))
	f.Add([]byte(`{"version":"om-options/v1","level":"full","schedule":false,"instrument":true,"trace":false}`))
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		opts, err := UnmarshalOptions(data)
		if err != nil {
			return
		}
		canon, err := MarshalOptions(opts...)
		if err != nil {
			t.Fatalf("accepted options do not re-marshal: %v", err)
		}
		opts2, err := UnmarshalOptions(canon)
		if err != nil {
			t.Fatalf("canonical form rejected: %v", err)
		}
		canon2, err := MarshalOptions(opts2...)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(canon, canon2) {
			t.Fatalf("canonical form not a fixed point:\n first %s\nsecond %s", canon, canon2)
		}
	})
}
