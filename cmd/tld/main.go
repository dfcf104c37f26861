// Command tld is the traditional (standard) linker: it merges relocatable
// object modules and the runtime library into an executable image with no
// link-time optimization.
//
// Usage:
//
//	tld [-o a.out] [-nostdlib] file.o...
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/link"
	"repro/internal/objfile"
	"repro/internal/rtlib"
)

func main() {
	out := flag.String("o", "a.out", "output image file")
	nostdlib := flag.Bool("nostdlib", false, "do not link the runtime library")
	shared := flag.String("shared", "", "comma-separated module names to treat as a dynamically-linked shared library")
	flag.Parse()

	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "tld: no input objects")
		os.Exit(1)
	}
	objs, err := rtlib.LoadObjects(flag.Args(), !*nostdlib)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tld:", err)
		os.Exit(1)
	}
	p, err := link.Merge(objs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tld:", err)
		os.Exit(1)
	}
	if *shared != "" {
		p.MarkShared(strings.Split(*shared, ",")...)
	}
	im, err := p.Layout()
	if err != nil {
		fmt.Fprintln(os.Stderr, "tld:", err)
		os.Exit(1)
	}
	if err := writeImage(*out, im); err != nil {
		fmt.Fprintln(os.Stderr, "tld:", err)
		os.Exit(1)
	}
}

func writeImage(name string, im *objfile.Image) error {
	f, err := os.Create(name)
	if err != nil {
		return err
	}
	defer f.Close()
	return im.Write(f)
}
