package dataflow

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/link"
	"repro/internal/om"
)

// BenchmarkAnalyzeImage times the whole static check of an OM-full image
// (model decode, CFG, solvers, interpretation, every check) on progen
// programs at 1x and 16x the default functions per module.
func BenchmarkAnalyzeImage(b *testing.B) {
	for _, scale := range []int{1, 16} {
		b.Run(fmt.Sprintf("%dx", scale), func(b *testing.B) {
			p, err := link.Merge(progenObjects(b, 1, scale))
			if err != nil {
				b.Fatal(err)
			}
			res, err := om.Run(context.Background(), p, om.WithLevel(om.LevelFull))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := AnalyzeImage(res.Image); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
