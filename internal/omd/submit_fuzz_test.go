package omd

import (
	"bytes"
	"errors"
	"io"
	"mime/multipart"
	"net/http"
	"testing"

	"repro/internal/tcc"
)

// FuzzSubmitBody: decodeSubmit, handed any content type, declared length
// and body, returns
// a spec or a *submitError carrying 400 or 413, and never panics; a spec it
// returns keeps within the part bound, has no empty object, and resolves
// or fails without panicking. The body limit is small here so the 413 path
// is reachable.
func FuzzSubmitBody(f *testing.F) {
	var body bytes.Buffer
	mw := multipart.NewWriter(&body)
	if err := mw.SetBoundary("omd-fuzz"); err != nil {
		f.Fatal(err)
	}
	w, _ := mw.CreateFormField("spec")
	w.Write([]byte(`{"version":"` + SpecVersion + `","options":null,"check":"static"}`))
	for _, src := range []string{"long add(long a, long b) { return a + b; }\n", "long add(long a, long b);\nlong main() { return add(1, 2); }\n"} {
		obj, err := tcc.Compile("m", []tcc.Source{{Name: "m", Text: src}}, tcc.DefaultOptions())
		if err != nil {
			f.Fatal(err)
		}
		w, _ := mw.CreateFormFile("object", "m.o")
		if err := obj.Write(w); err != nil {
			f.Fatal(err)
		}
	}
	mw.Close()
	f.Add(mw.FormDataContentType(), int64(body.Len()), body.Bytes())
	f.Add(mw.FormDataContentType(), int64(-1), body.Bytes())
	f.Add("application/json", int64(0), []byte(`{"version":"`+SpecVersion+`","benchmark":"li"}`))
	f.Add("", int64(1<<40), []byte(`{"objects":["QVhQTw=="],"version":"omd-job/v2"}`))

	f.Fuzz(func(t *testing.T, contentType string, declared int64, data []byte) {
		js, err := decodeSubmit(contentType, declared, http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(data)), 4<<10))
		if err != nil {
			var se *submitError
			if !errors.As(err, &se) || (se.status != http.StatusBadRequest && se.status != http.StatusRequestEntityTooLarge) {
				t.Fatalf("untyped error %T: %v", err, err)
			}
			if js != nil {
				t.Fatal("spec returned with an error")
			}
			return
		}
		if len(js.Objects) > maxObjectParts {
			t.Fatalf("%d object parts, bound %d", len(js.Objects), maxObjectParts)
		}
		for i, obj := range js.Objects {
			if len(obj) == 0 {
				t.Fatalf("object part %d is empty", i)
			}
		}
		_, _ = js.resolve()
	})
}

// TestDecodeSubmitArena: object parts come back intact and capped at their
// own length whether the declared body length is exact, short, or unknown,
// and whether the arena grows inside a part or between parts.
func TestDecodeSubmitArena(t *testing.T) {
	var objs [][]byte
	for i, n := range []int{1, 4095, 4097, 9000, 70000} {
		obj := make([]byte, n)
		for j := range obj {
			obj[j] = byte(i + j*13)
		}
		objs = append(objs, obj)
	}
	var body bytes.Buffer
	mw := multipart.NewWriter(&body)
	w, _ := mw.CreateFormField("spec")
	w.Write([]byte(`{"version":"` + SpecVersion + `"}`))
	for _, obj := range objs {
		w, _ := mw.CreateFormFile("object", "m.o")
		w.Write(obj)
	}
	mw.Close()
	for _, declared := range []int64{int64(body.Len()), 10, -1} {
		js, err := decodeSubmit(mw.FormDataContentType(), declared, bytes.NewReader(body.Bytes()))
		if err != nil {
			t.Fatalf("declared %d: %v", declared, err)
		}
		if len(js.Objects) != len(objs) {
			t.Fatalf("declared %d: %d objects, want %d", declared, len(js.Objects), len(objs))
		}
		for i, obj := range js.Objects {
			if !bytes.Equal(obj, objs[i]) || cap(obj) != len(obj) {
				t.Errorf("declared %d: object %d: %d bytes (cap %d), want the %d uploaded",
					declared, i, len(obj), cap(obj), len(objs[i]))
			}
		}
	}
}
