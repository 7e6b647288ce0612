// Command fmacheck lists the fused multiply-adds the Go compiler emits
// for arm64 in the packet-path packages, and fails when one appears
// that a checked-in list does not allow.
//
// On amd64 the compiler never fuses a multiply into an add, so the
// packet path's Go loops round every product and the asm kernels match
// them bit for bit. On arm64 it does fuse (FMADDD and its kin), which is
// why arm64 results differ in the last bits and why the asm kernels'
// exactness contract is amd64-only. This check cross-compiles the
// packages for arm64 with -gcflags=-S, counts FMADDD, FMSUBD, FNMADDD
// and FNMSUBD (and the single-precision S forms) per compiled function,
// and compares the counts with the list. A function missing from the
// list, or with more sites than it lists, fails the check; fewer is a
// notice to shrink the list with -update. So the list can only shrink
// unless someone rewrites it on purpose, and a change that adds a fused
// site to the packet path has to say so in its diff.
//
// Sites are keyed by function, not by source line: an edit elsewhere in
// a file moves line numbers but not function names, so only a change to
// the function itself can trip the check. Inlined code counts in the
// function it is inlined into, since that is where the instruction is.
//
// Usage:
//
//	fmacheck -list tools/fmacheck/fma_sites.txt [-update] ./internal/signal ./internal/wifi ...
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

func main() {
	listPath := flag.String("list", "tools/fmacheck/fma_sites.txt", "checked-in list of allowed fused sites per function")
	update := flag.Bool("update", false, "rewrite the list from this build instead of checking")
	flag.Parse()
	if flag.NArg() == 0 {
		fatal("no packages given")
	}

	cmd := exec.Command("go", append([]string{"build", "-gcflags=-S"}, flag.Args()...)...)
	cmd.Env = append(os.Environ(), "GOOS=linux", "GOARCH=arm64")
	out, err := cmd.CombinedOutput()
	if err != nil {
		fatal("go build for arm64: %v\n%s", err, out)
	}
	got, err := countSites(bytes.NewReader(out))
	if err != nil {
		fatal("parse compiler output: %v", err)
	}

	if *update {
		f, err := os.Create(*listPath)
		if err != nil {
			fatal("%v", err)
		}
		if err := writeList(f, got); err != nil {
			fatal("write %s: %v", *listPath, err)
		}
		if err := f.Close(); err != nil {
			fatal("%v", err)
		}
		fmt.Printf("fmacheck: recorded %d functions, %d sites in %s\n", len(got), total(got), *listPath)
		return
	}

	f, err := os.Open(*listPath)
	if err != nil {
		fatal("%v", err)
	}
	allowed, err := readList(f)
	f.Close()
	if err != nil {
		fatal("read %s: %v", *listPath, err)
	}
	bad, shrunk := compare(got, allowed)
	for _, s := range shrunk {
		fmt.Println("fmacheck: notice:", s, "(shrink the list with -update)")
	}
	for _, s := range bad {
		fmt.Fprintln(os.Stderr, "fmacheck:", s)
	}
	if len(bad) > 0 {
		os.Exit(1)
	}
	fmt.Printf("fmacheck: ok, %d functions, %d sites\n", len(got), total(got))
}

// fusedOps are the arm64 fused multiply-add mnemonics.
var fusedOps = map[string]bool{
	"FMADDD": true, "FMSUBD": true, "FNMADDD": true, "FNMSUBD": true,
	"FMADDS": true, "FMSUBS": true, "FNMADDS": true, "FNMSUBS": true,
}

// countSites reads `go build -gcflags=-S` output and counts the fused
// instructions of each compiled function. A function starts at its
// "<symbol> STEXT" header line; instruction lines are tab-separated,
// with the mnemonic in the third field after the offset and position.
func countSites(r io.Reader) (map[string]int, error) {
	counts := map[string]int{}
	fn := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if fields := strings.Fields(line); len(fields) >= 2 && fields[1] == "STEXT" && !strings.HasPrefix(line, "\t") {
			fn = fields[0]
			continue
		}
		parts := strings.Split(line, "\t")
		if len(parts) < 3 || !fusedOps[strings.TrimSpace(parts[2])] {
			continue
		}
		if fn == "" {
			return nil, fmt.Errorf("fused instruction outside a function: %q", line)
		}
		counts[fn]++
	}
	return counts, sc.Err()
}

// compare returns the entries of got that list does not allow (new
// functions, or more sites than listed) and those that shrank.
func compare(got, list map[string]int) (bad, shrunk []string) {
	for _, fn := range sortedKeys(got) {
		switch n, ok := list[fn]; {
		case !ok:
			bad = append(bad, fmt.Sprintf("%s: %d fused sites, not in the list", fn, got[fn]))
		case got[fn] > n:
			bad = append(bad, fmt.Sprintf("%s: %d fused sites, list allows %d", fn, got[fn], n))
		case got[fn] < n:
			shrunk = append(shrunk, fmt.Sprintf("%s: %d fused sites, list allows %d", fn, got[fn], n))
		}
	}
	for _, fn := range sortedKeys(list) {
		if _, ok := got[fn]; !ok {
			shrunk = append(shrunk, fmt.Sprintf("%s: no fused sites, list allows %d", fn, list[fn]))
		}
	}
	return bad, shrunk
}

// The list is one "count symbol" line per function, sorted by symbol;
// blank lines and lines starting with # are comments.
func readList(r io.Reader) (map[string]int, error) {
	list := map[string]int{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		n, fn, ok := strings.Cut(line, " ")
		count, err := strconv.Atoi(n)
		if !ok || err != nil || count <= 0 {
			return nil, fmt.Errorf("bad line %q", line)
		}
		list[fn] = count
	}
	return list, sc.Err()
}

func writeList(w io.Writer, counts map[string]int) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "# Fused multiply-add sites per function in the arm64 build of the")
	fmt.Fprintln(bw, "# packet-path packages; written by `make fma-check-update`, checked by")
	fmt.Fprintln(bw, "# `make fma-check`. A count may only shrink.")
	for _, fn := range sortedKeys(counts) {
		fmt.Fprintf(bw, "%d %s\n", counts[fn], fn)
	}
	return bw.Flush()
}

func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func total(m map[string]int) int {
	n := 0
	for _, c := range m {
		n += c
	}
	return n
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "fmacheck: "+format+"\n", args...)
	os.Exit(1)
}
