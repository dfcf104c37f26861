package objfile_test

import (
	"bytes"
	"testing"

	"repro/internal/objfile"
	"repro/internal/rtlib"
	"repro/internal/spec"
	"repro/internal/tcc"
)

// BenchmarkObjfileRead decodes the serialized modules of one link (the li
// benchmark's modules plus the runtime library): the decode layer of a cold
// link, alone.
func BenchmarkObjfileRead(b *testing.B) {
	bench, _ := spec.ByName("li")
	objs, err := rtlib.StandardObjects()
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range bench.Modules {
		obj, err := tcc.Compile(m.Name, []tcc.Source{m}, tcc.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		objs = append(objs, obj)
	}
	var raw [][]byte
	var total int64
	for _, obj := range objs {
		var buf bytes.Buffer
		if err := obj.Write(&buf); err != nil {
			b.Fatal(err)
		}
		raw = append(raw, buf.Bytes())
		total += int64(buf.Len())
	}
	b.SetBytes(total)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, data := range raw {
			if _, err := objfile.Read(bytes.NewReader(data)); err != nil {
				b.Fatal(err)
			}
		}
	}
}
