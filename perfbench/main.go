// Command perfbench is simsub's end-to-end serving benchmark. It runs one
// named workload against the real HTTP stack in this process — nodes are
// server.New(engine.New(...)) on loopback ports, the fleets put a
// router.New + router.NewHandler in front — checks the answers, and prints
// every metric by name with its unit and sample count. The last line of
// standard output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. With --trace 0 the metrics are the end-to-end ones; with
// --trace 1 a traced run prints the per-layer ones and writes its spans
// under --out.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload fleet-scan --seed 1 --seconds 20 --trace 0
//
// Workloads: fleet-scan, fleet-hot, ingest-live (see workloads.go for what
// each one stresses). The same seed always generates the same inputs.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: fleet-scan, fleet-hot or ingest-live")
		seed    = flag.Int64("seed", 1, "workload seed; the same seed generates the same inputs")
		seconds = flag.Int("seconds", 20, "length of the timed window")
		trace   = flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
		out     = flag.String("out", ".bench_build/perfbench", "directory for span exports and scratch data")
		src     = flag.String("src", ".", "repository root, for the provenance hash")
	)
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload fleet-scan|fleet-hot|ingest-live, --seconds >= 1, --trace 0|1\n")
		os.Exit(2)
	}
	r := &runner{w: w, seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1,
		out: *out, sz: fullScale, rep: newReport(os.Stdout), conns: procs()}
	if err := r.run(*src); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// run executes the workload and prints the report; an error means the run
// must not count.
func (r *runner) run(src string) error {
	r.ref = startRefClock()
	defer r.ref.close()
	r.provenance(src)
	if err := r.w.run(r); err != nil {
		return err
	}
	declared := endToEnd
	if r.trace {
		declared = perLayer
	}
	mean, _, n := r.ref.over(time.Time{}, time.Now())
	r.rep.set("host.ref_cost_us", float64(mean)/float64(time.Microsecond), n)
	return r.rep.finish(declared)
}

// provenance prints what produced the numbers.
func (r *runner) provenance(src string) {
	r.rep.line("perfbench workload=%s seed=%d seconds=%.0f trace=%v", r.w.Name, r.seed, r.seconds.Seconds(), r.trace)
	r.rep.line("why: %s", r.w.Why)
	r.rep.line("provenance: commit=%s source_sha256=%s go=%s gomaxprocs=%d cpu=%q os=%s/%s",
		commit(src), sourceHash(src), runtime.Version(), runtime.GOMAXPROCS(0), cpuModel(), runtime.GOOS, runtime.GOARCH)
	r.rep.line("sizes: corpus=%d stream=%d query_len=%d..%d hot_pool=%d quality_queries=%d k=%d generator_conns=%d",
		r.sz.Corpus, r.sz.Stream, r.sz.QMin, r.sz.QMax, r.sz.HotPool, r.sz.Quality, K, r.conns)
}

// commit is the checked-out commit, or "none" outside a git work tree.
func commit(src string) string {
	out, err := exec.Command("git", "-C", src, "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceHash identifies the measured source when there is no commit: the
// SHA-256 over the paths and contents of the tree's .go and go.mod files.
func sourceHash(src string) string {
	h := sha256.New()
	err := filepath.WalkDir(src, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != src {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			return nil
		}
		f, err := os.Open(p)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\n", filepath.ToSlash(p))
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// cpuModel reads the CPU model name on Linux.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
