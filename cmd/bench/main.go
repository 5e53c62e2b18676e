// Command bench measures the repository's committed performance baselines
// and gates them: each gate owns one BENCH_<gate>.json file, measures its
// quantities on this host and judges them against the committed numbers
// with fixed bounds.
//
//	bench -check all          # every gate, in order; exit 1 if any fails
//	bench -check pdes         # one gate
//	bench -write kb           # re-measure and rewrite BENCH_kb.json
//	bench -check kb -addr 127.0.0.1:7070  # measure a running tuned instead
//
// Gates: sim (engine throughput), mpi (matching and persistent-nbc steady
// state), kb (knowledge-base daemon latency), fork (speculative selection),
// scale (world footprint and throughput at 1K-16K ranks) and pdes (sharded
// vs sequential engine). Write mode measures longer than check mode and
// regenerates on a quiet machine; the committed files record the host they
// were measured on, and a failing check prints it next to this host.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// header is the host and provenance block every committed baseline starts
// with.
type header struct {
	Benchmark  string `json:"benchmark"`
	Regenerate string `json:"regenerate"`
	Workload   string `json:"workload"`
	CPU        string `json:"cpu"`
	Cores      int    `json:"cores"`
	Date       string `json:"date"`
}

// newHeader describes a measurement of gate name taken on this host today.
func newHeader(name, benchmark, workload string) header {
	return header{
		Benchmark:  benchmark,
		Regenerate: "go run ./cmd/bench -write " + name,
		Workload:   workload,
		CPU:        cpuModel(),
		Cores:      runtime.NumCPU(),
		Date:       time.Now().Format("2006-01-02"),
	}
}

func (h header) hdr() header { return h }

func (h header) host() string {
	cpu, cores := h.CPU, "cores unrecorded"
	if cpu == "" {
		cpu = "cpu unrecorded"
	}
	if h.Cores > 0 {
		cores = fmt.Sprintf("%d cores", h.Cores)
	}
	return fmt.Sprintf("%s, %s", cpu, cores)
}

// baseline is a committed file's schema: it embeds the shared header.
type baseline interface{ hdr() header }

// baselineFile is the committed file of gate name, in the repository root.
func baselineFile(name string) string { return "BENCH_" + name + ".json" }

// gate is one committed baseline with schema T. measure fills b with a
// fresh measurement (write selects the longer regenerate-mode settings and
// leaves fields it does not measure as the committed file had them);
// compare judges a measurement against the committed numbers.
type gate[T baseline] struct {
	measure func(b *T, write bool) error
	compare func(committed, now *T) error
	summary func(now *T) string
	// remeasure is how many full remeasurements a failed compare gets
	// before the gate fails: latency on a shared machine can stay noisy
	// for longer than one measurement, a real regression fails them all.
	remeasure int
}

// runner is a gate with its schema erased, as main drives it. Each method
// takes the path of the gate's committed file.
type runner interface {
	check(path string) (summary string, err error)
	write(path string) error
	decode(path string) error
}

func (g gate[T]) check(path string) (string, error) {
	committed, err := readBaseline[T](path)
	if err != nil {
		return "", err
	}
	for attempt := 0; ; attempt++ {
		var now T
		if err := g.measure(&now, false); err != nil {
			return "", err
		}
		err := g.compare(committed, &now)
		if err == nil {
			return g.summary(&now), nil
		}
		if attempt == g.remeasure {
			return "", withHosts(err, (*committed).hdr())
		}
		fmt.Fprintf(os.Stderr, "bench: %s: over budget (%v), remeasuring\n", filepath.Base(path), err)
	}
}

func (g gate[T]) write(path string) error {
	b, err := readBaseline[T](path)
	if errors.Is(err, fs.ErrNotExist) {
		b, err = new(T), nil
	}
	if err != nil {
		return err
	}
	if err := g.measure(b, true); err != nil {
		return err
	}
	enc, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(enc, '\n'), 0o644)
}

// decode reads the committed file strictly, as check and write do.
func (g gate[T]) decode(path string) error {
	_, err := readBaseline[T](path)
	return err
}

// withHosts adds the host the committed baseline was recorded on and the
// measuring host to a failed verdict; a baseline from a faster machine
// explains a failure without excusing it.
func withHosts(err error, committed header) error {
	this := header{CPU: cpuModel(), Cores: runtime.NumCPU()}
	return fmt.Errorf("%w\n  baseline host: %s (%s)\n  this host:     %s",
		err, committed.host(), committed.Date, this.host())
}

// readBaseline decodes a committed baseline strictly: a field the schema
// does not know is an error, so a schema and its file cannot drift apart.
func readBaseline[T any](path string) (*T, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	b := new(T)
	if err := dec.Decode(b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return b, nil
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

// gates in the order -check all runs them.
var gates = []struct {
	name string
	g    runner
}{
	{"sim", simGate},
	{"mpi", mpiGate},
	{"kb", kbGate},
	{"fork", forkGate},
	{"scale", scaleGate},
	{"pdes", pdesGate},
}

func gateNames() string {
	names := make([]string, len(gates))
	for i, g := range gates {
		names[i] = g.name
	}
	return strings.Join(names, "|")
}

func main() {
	check := flag.String("check", "", "measure and judge against the committed baseline: all|"+gateNames())
	write := flag.String("write", "", "measure and rewrite one committed baseline: "+gateNames())
	flag.StringVar(&kbAddr, "addr", "", "kb gate: benchmark a running tuned at this address (empty: self-host in-process)")
	flag.Parse()

	sel := *check + *write
	if *check != "" && *write != "" || sel == "" || *write == "all" || flag.NArg() > 0 {
		usage("give exactly one of -check all|<gate> or -write <gate>")
	}
	var run []int
	for i, g := range gates {
		if sel == "all" || sel == g.name {
			run = append(run, i)
		}
	}
	if len(run) == 0 {
		usage(fmt.Sprintf("unknown gate %q", sel))
	}
	failed := 0
	for _, i := range run {
		name, g, path := gates[i].name, gates[i].g, baselineFile(gates[i].name)
		if *write != "" {
			if err := g.write(path); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
				os.Exit(1)
			}
			fmt.Printf("bench: %s: wrote %s\n", name, path)
			continue
		}
		summary, err := g.check(path)
		if err != nil {
			failed++
			fmt.Printf("bench: %s: FAIL: %v\n", name, err)
			continue
		}
		fmt.Printf("bench: %s: PASS: %s\n", name, summary)
	}
	if failed > 0 {
		fmt.Printf("bench: %d of %d gate(s) failed\n", failed, len(run))
		os.Exit(1)
	}
}

func usage(msg string) {
	fmt.Fprintf(os.Stderr, "bench: %s (gates: %s)\n", msg, gateNames())
	flag.Usage()
	os.Exit(2)
}
