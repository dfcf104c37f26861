package om

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/profile"
)

// TestOptionsGoldenJSON pins the canonical serialized form of the resolved
// option set byte for byte. If this test fails, the om-options/v2 wire
// format changed: either revert the drift or bump OptionsVersion and update
// every producer (omd.JobSpec in particular).
func TestOptionsGoldenJSON(t *testing.T) {
	cases := []struct {
		name string
		opts []Option
		want string
	}{
		{
			name: "defaults",
			opts: nil,
			want: `{"version":"om-options/v2","level":"full","schedule":false,"trace":false}`,
		},
		{
			name: "simple",
			opts: []Option{WithLevel(LevelSimple)},
			want: `{"version":"om-options/v2","level":"simple","schedule":false,"trace":false}`,
		},
		{
			name: "full+sched+trace",
			opts: []Option{WithLevel(LevelFull), WithSchedule(true), WithTrace()},
			want: `{"version":"om-options/v2","level":"full","schedule":true,"trace":true}`,
		},
		{
			name: "ablated",
			opts: []Option{WithAblation(Ablation{NoCallOpt: true, NoGATReduction: true})},
			want: `{"version":"om-options/v2","level":"full","schedule":false,"ablation":{"no_gat_reduction":true,"no_call_opt":true},"trace":false}`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := MarshalOptions(tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != tc.want {
				t.Errorf("canonical form drifted:\ngot  %s\nwant %s", got, tc.want)
			}
		})
	}
}

// TestOptionsRoundTrip checks Marshal∘Unmarshal is the identity on the
// canonical form for every level/schedule/ablation/trace combination the
// API can express.
func TestOptionsRoundTrip(t *testing.T) {
	var optSets [][]Option
	for _, lvl := range []Level{LevelNone, LevelSimple, LevelFull} {
		for _, sched := range []bool{false, true} {
			for _, trace := range []bool{false, true} {
				optSets = append(optSets, []Option{
					WithLevel(lvl), WithSchedule(sched),
				})
				if trace {
					optSets[len(optSets)-1] = append(optSets[len(optSets)-1], WithTrace())
				}
			}
		}
	}
	for _, ab := range Ablations() {
		optSets = append(optSets, []Option{WithAblation(ab), WithSchedule(true)})
	}

	for _, opts := range optSets {
		data, err := MarshalOptions(opts...)
		if err != nil {
			t.Fatal(err)
		}
		back, err := UnmarshalOptions(data)
		if err != nil {
			t.Fatalf("%s: %v", data, err)
		}
		again, err := MarshalOptions(back...)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, again) {
			t.Errorf("round trip not identity:\nfirst  %s\nsecond %s", data, again)
		}
	}
}

// TestOptionsRejectUnserializable: options carrying live objects have no
// wire form and must fail loudly rather than silently drop state.
func TestOptionsRejectUnserializable(t *testing.T) {
	if _, err := MarshalOptions(WithMetrics(obs.NewRegistry())); err == nil {
		t.Error("WithMetrics marshaled silently")
	}
	if _, err := MarshalOptions(WithProfile(profile.New("test"))); err == nil {
		t.Error("WithProfile marshaled silently")
	}
}

// TestOptionsUnmarshalStrict rejects malformed documents: wrong version,
// unknown fields, unknown levels, and ablations below level full.
func TestOptionsUnmarshalStrict(t *testing.T) {
	bad := []string{
		`{"version":"om-options/v0","level":"full","schedule":false,"trace":false}`,
		`{"version":"om-options/v2","level":"max","schedule":false,"trace":false}`,
		`{"version":"om-options/v2","level":"full","schedule":false,"trace":false,"extra":1}`,
		`{"version":"om-options/v2","level":"simple","schedule":false,"ablation":{"no_call_opt":true},"trace":false}`,
	}
	for _, doc := range bad {
		if _, err := UnmarshalOptions([]byte(doc)); err == nil {
			t.Errorf("accepted invalid document: %s", doc)
		}
	}

	// A v1 document fails on its version, naming v2, before its dropped
	// instrument field can trip the unknown-field check.
	v1 := `{"version":"om-options/v1","level":"full","schedule":false,"instrument":false,"trace":false}`
	if _, err := UnmarshalOptions([]byte(v1)); err == nil || !strings.Contains(err.Error(), OptionsVersion) {
		t.Errorf("v1 document: err %v, want one naming %s", err, OptionsVersion)
	}
}

// TestRunMatchesRoundTrippedOptions is the direct Run equivalence test
// (successor of the removed TestDeprecatedWrappersMatchRun): Run under an
// option list and Run under its serialize/deserialize round trip produce
// byte-identical images and equal stats, so a remote JobSpec can never
// drift from a local invocation.
func TestRunMatchesRoundTrippedOptions(t *testing.T) {
	for _, opts := range [][]Option{
		{WithLevel(LevelSimple)},
		{WithLevel(LevelFull), WithSchedule(true)},
		{WithAblation(Ablation{NoCallOpt: true})},
	} {
		data, err := MarshalOptions(opts...)
		if err != nil {
			t.Fatal(err)
		}
		wire, err := UnmarshalOptions(data)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := Run(context.Background(), freshProgram(t), opts...)
		if err != nil {
			t.Fatal(err)
		}
		viaWire, err := Run(context.Background(), freshProgram(t), wire...)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(imageBytes(t, direct.Image), imageBytes(t, viaWire.Image)) {
			t.Errorf("%s: image differs between direct and round-tripped options", data)
		}
		switch {
		case direct.Stats == nil && viaWire.Stats == nil:
		case direct.Stats == nil || viaWire.Stats == nil || *direct.Stats != *viaWire.Stats:
			t.Errorf("%s: stats diverged:\ndirect %+v\nwire   %+v", data, direct.Stats, viaWire.Stats)
		}
	}
}
