package om

import (
	"bytes"
	"context"
	"sync/atomic"
	"testing"

	"repro/internal/objfile"
)

func imageBytes(t *testing.T, im *objfile.Image) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := im.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestParallelOutputIdentical checks the determinism-by-construction claim:
// at every optimization level, an OM run with many analysis goroutines
// produces an image byte-identical to the serial run, with equal stats.
func TestParallelOutputIdentical(t *testing.T) {
	cases := []struct {
		name string
		opts []Option
	}{
		{"none", []Option{WithLevel(LevelNone)}},
		{"simple", []Option{WithLevel(LevelSimple)}},
		{"full", []Option{WithLevel(LevelFull)}},
		{"full+sched", []Option{WithLevel(LevelFull), WithSchedule(true)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			serial, err := Run(context.Background(), freshProgram(t),
				append([]Option{WithParallelism(1)}, tc.opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			par, err := Run(context.Background(), freshProgram(t),
				append([]Option{WithParallelism(8)}, tc.opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(imageBytes(t, serial.Image), imageBytes(t, par.Image)) {
				t.Error("parallel image differs from serial image")
			}
			switch {
			case serial.Stats == nil && par.Stats == nil:
			case serial.Stats == nil || par.Stats == nil || *serial.Stats != *par.Stats:
				t.Errorf("stats diverged:\nserial: %+v\nparallel: %+v", serial.Stats, par.Stats)
			}
		})
	}
}

// TestRunCanceled checks that a canceled context aborts Run.
func TestRunCanceled(t *testing.T) {
	p := freshProgram(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, p); err == nil {
		t.Fatal("expected error from canceled context")
	}
}

// TestRunWorkersRaisesPanicInCaller: a panic in one worker goroutine is
// raised again in the goroutine that started the workers, after every other
// worker has returned, so a recover around om.Run catches it.
func TestRunWorkersRaisesPanicInCaller(t *testing.T) {
	var started, finished atomic.Int32
	defer func() {
		if v := recover(); v != "worker fault" {
			t.Fatalf("recovered %v, want the worker's panic", v)
		}
		if n := finished.Load(); n != 3 {
			t.Errorf("%d workers finished before the panic was raised, want 3", n)
		}
	}()
	runWorkers(4, func() {
		if started.Add(1) == 1 {
			panic("worker fault")
		}
		finished.Add(1)
	})
	t.Fatal("runWorkers returned normally")
}
