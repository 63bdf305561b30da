// Command e2ebench is the repository's end-to-end benchmark.  It
// generates a seeded Force program, runs it through the pipeline
// forcerun takes by default — forcelang.Parse, vet.Analyze, then
// execution on the chunked interpreter or the warm aot native tier — at
// np=1 and np=NumCPU, checks every run's output against a sequential Go
// reference, and prints the metrics named in BENCHMARK.json.
//
//	bash e2ebench/run.sh --workload stencil --seed 1 --seconds 20 --trace 0
//
// run.sh builds this module (which reaches repro/internal through a
// replace directive) and runs it from the repository root, where the
// aot tier's `go build` needs the repro module.  --trace 0 measures the
// end-to-end metrics with tracing off; --trace 1 is the separate traced
// pass that yields the per-layer metrics and writes its spans under
// .bench_build/trace.  The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// buildDir is the benchmark's scratch directory under the repository
// root; run.sh puts its Go caches and binary there too.
const buildDir = ".bench_build"

// maxNP caps np=NumCPU at the tasks workload's Async ring size.
const maxNP = 64

type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
}

// provenance identifies what a result was measured on.
type provenance struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"numcpu"`
	NPCPU      int    `json:"np_cpu"`
	GoVersion  string `json:"go_version"`
	Platform   string `json:"platform"`
	Commit     string `json:"commit"`
	SourceSHA  string `json:"source_sha256"`
}

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "workload: stencil, dense or tasks")
		seed    = flag.Int64("seed", 1, "seed the workload's program is generated from")
		seconds = flag.Int("seconds", 10, "length of the measured passes in seconds")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from the traced pass")
	)
	flag.Parse()
	gen, ok := generators[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "usage: e2ebench --workload {%s} --seed N --seconds S --trace 0|1\n", strings.Join(workloadNames, ","))
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	if err := os.MkdirAll(filepath.Join(root, buildDir), 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	work, err := os.MkdirTemp(filepath.Join(root, buildDir), "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	defer os.RemoveAll(work)

	npcpu := min(runtime.NumCPU(), maxNP)
	prov := provenance{
		Workload: *name, Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), NPCPU: npcpu,
		GoVersion: runtime.Version(), Platform: runtime.GOOS + "/" + runtime.GOARCH,
		Commit: gitCommit(root), SourceSHA: sourceDigest(root),
	}
	b := newBench(gen(rand.New(rand.NewSource(*seed))), npcpu, work)
	b.front = genFrontend(rand.New(rand.NewSource(*seed)))
	d := time.Duration(*seconds) * time.Second
	var ms []metric
	if *trace == 1 {
		var tr *tracer
		ms, tr = b.traced(d)
		path := filepath.Join(root, buildDir, "trace", fmt.Sprintf("%s-seed%d.json", *name, *seed))
		if err := tr.write(path, prov, ms); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench: writing spans:", err)
			return 1
		}
		fmt.Printf("spans: %s\n", filepath.Join(buildDir, "trace", filepath.Base(path)))
	} else {
		ms = b.timed(d)
	}
	return report(os.Stdout, prov, b, ms)
}

// report prints the provenance, one line per metric, and the result
// object as the last line.
func report(w io.Writer, prov provenance, b *bench, ms []metric) int {
	pj, _ := json.Marshal(prov) // plain struct: cannot fail
	fmt.Fprintf(w, "provenance: %s\n", pj)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]value{}
	for _, m := range ms {
		v := m.Value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		fmt.Fprintf(w, "%-34s %-14.6g %s\n", m.Name, v, m.Unit)
		out[m.Name] = value{v, m.Unit}
	}
	res, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{b.failed == 0 && b.attempted > 0, max(b.attempted, 1), b.failed, out})
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	fmt.Fprintf(w, "%s\n", res)
	return 0
}

// gitCommit returns HEAD's hash when root is a git checkout, else "".
// Without a .git of its own, root is never looked up in an enclosing
// repository.
func gitCommit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return ""
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes the repository's Go, module and Force sources, so
// a result names the code it measured even in a checkout without git.
func sourceDigest(root string) string {
	var files []string
	// The callback skips unreadable entries, so the walk cannot fail.
	_ = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		switch filepath.Ext(path) {
		case ".go", ".mod", ".force":
			if d.Type().IsRegular() {
				files = append(files, path)
			}
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", rel, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return math.NaN()
	}
	return a / b
}

func field(ss []sample, get func(sample) float64) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = get(s)
	}
	return out
}
