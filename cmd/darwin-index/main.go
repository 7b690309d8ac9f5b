// Command darwin-index builds, inspects, and verifies persistent
// Darwin index files (internal/indexfile, extension .dwi). A built
// index carries the seed tables, mask, and reference bytes in their
// exact in-memory layout, so darwin and darwind cold-start by mapping
// the file instead of re-running the index build the paper's Table 3
// charges per run.
//
// Usage:
//
//	darwin-index build -ref ref.fa [-out ref.fa.dwi] [-k 12 -n 750 -h 24] [-shards 4]
//	darwin-index inspect ref.fa.dwi
//	darwin-index verify ref.fa.dwi
//
// build writes atomically (temp file + rename) next to the reference
// by default, where darwin/darwind auto-discover it as a sidecar.
// inspect prints the header as JSON without checksumming payloads;
// verify re-checks every section CRC and exits non-zero with the
// structured error code on any corruption.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"darwin/internal/core"
	"darwin/internal/dna"
	"darwin/internal/indexfile"
	"darwin/internal/indexio"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "build":
		err = runBuild(os.Args[2:])
	case "inspect":
		err = runInspect(os.Args[2:])
	case "verify":
		err = runVerify(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "darwin-index: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		code := "error"
		if c := indexfile.ErrCode(err); c != "" {
			code = c
		}
		fmt.Fprintf(os.Stderr, "darwin-index: [%s] %v\n", code, err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  darwin-index build -ref ref.fa [-out ref.fa.dwi] [flags]   build an index file
  darwin-index inspect <file.dwi>                            print the header as JSON
  darwin-index verify <file.dwi>                             re-check all section checksums`)
}

func runBuild(args []string) error {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	refPath := fs.String("ref", "", "reference FASTA/FASTQ (required)")
	out := fs.String("out", "", "output index path (default: <ref>.dwi sidecar)")
	k := fs.Int("k", 12, "D-SOFT seed size k")
	n := fs.Int("n", 750, "D-SOFT seeds per query strand N")
	h := fs.Int("h", 24, "D-SOFT base-count threshold h")
	shards := fs.Int("shards", 0, "split the index into this many shards (0 = monolithic)")
	shardOverlap := fs.Int("shard-overlap", 0, "shard overlap margin in bases (0 = exactness minimum)")
	fs.Parse(args)
	if *refPath == "" {
		return fmt.Errorf("build: -ref is required")
	}
	outPath := *out
	if outPath == "" {
		outPath = indexfile.SidecarPath(*refPath)
	}

	recs, err := dna.ReadFile(*refPath)
	if err != nil {
		return err
	}
	if len(recs) == 0 {
		return fmt.Errorf("no sequences in %s", *refPath)
	}
	cfg := core.DefaultConfig(*k, *n, *h)
	spec := core.ShardSpec{Shards: *shards, Overlap: *shardOverlap}

	start := time.Now()
	idx, err := indexio.WriteFile(outPath, recs, cfg, spec)
	if err != nil {
		return err
	}
	built := time.Since(start)

	info, err := indexfile.Inspect(outPath)
	if err != nil {
		return fmt.Errorf("re-reading written index: %w", err)
	}
	layout := "monolithic"
	if idx.ShardCount > 0 {
		layout = fmt.Sprintf("%d shards of %d bp (+%d bp overlap)", idx.ShardCount, idx.ShardSize, idx.Overlap)
	}
	fmt.Fprintf(os.Stderr, "darwin-index: wrote %s: %d sequences, %d bp, k=%d, %s, %d sections, %d bytes, fingerprint %016x (%s)\n",
		outPath, len(idx.Seqs), len(idx.Ref), idx.Params.SeedK, layout,
		len(info.Sections), info.FileSize, info.Fingerprint, built.Round(time.Millisecond))
	return nil
}

func runInspect(args []string) error {
	path, err := onePath("inspect", args)
	if err != nil {
		return err
	}
	info, err := indexfile.Inspect(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(info)
}

func runVerify(args []string) error {
	path, err := onePath("verify", args)
	if err != nil {
		return err
	}
	start := time.Now()
	info, err := indexfile.Verify(path)
	if err != nil {
		return err
	}
	fmt.Printf("darwin-index: %s ok: %d sections verified, %d bytes, fingerprint %016x (%s)\n",
		path, len(info.Sections), info.FileSize, info.Fingerprint, time.Since(start).Round(time.Millisecond))
	return nil
}

func onePath(cmd string, args []string) (string, error) {
	if len(args) != 1 || strings.HasPrefix(args[0], "-") {
		return "", fmt.Errorf("%s: exactly one index file path expected", cmd)
	}
	return args[0], nil
}
