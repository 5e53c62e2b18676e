package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"nbctune/internal/bench"
	"nbctune/internal/obs"
)

// simRow is one scenario of a simulated workload's pass: the fixed
// implementations it measures (RunFixed) and the selectors it runs
// (RunADCL).
type simRow struct {
	spec  bench.MicroSpec
	impls []string // implementation names measured with RunFixed; nil = all
	sels  []string
	class string

	scenario string            // spec.String(), from setup
	names    []string          // the spec's function set, from setup
	fixed    []int             // indices into names measured with RunFixed
	expect   *bench.SummaryRow // committed row this scenario is checked against
}

// full reports whether the row measures every implementation, so the
// verification decision (best, correct) can be rebuilt from its ops.
func (r *simRow) full() bool { return len(r.fixed) == len(r.names) }

type simOp struct {
	row int
	fn  int    // implementation index for RunFixed
	sel string // selector for RunADCL ("" = RunFixed)
}

// simWorkload is verify-grid, scale-torus or scale-torus-pdes2.
type simWorkload struct {
	cfg      config
	shards   int    // PDES shards: min(2, nproc), so at most nproc threads
	artifact string // committed summary the rows are checked against
	rows     []*simRow
	ops      []simOp
	// ref holds pass 0's per-op result fingerprints; every later pass,
	// traced or not, and the PDES single-shard replay must reproduce them.
	ref    []string
	digest string
	counts simCounts // exact simulated counts of the first traced pass
	// decisions[sel] counts correct decisions over full rows in pass 0.
	decisions map[string]int
	fullRows  int
	rowFails  []string
	world     worldProbe // world-build probes of the last setup
}

type simCounts struct {
	virtual                    float64
	wireBytes, rndvStalls      int64
	progressCalls, progressAdv int64
	evals                      int64
	have                       bool
}

type worldProbe struct {
	us, allocKB float64
	spans       []probeSpan
}

type probeSpan struct {
	row        int
	shape      string
	start, end time.Time
}

var verifySelectors = []string{"brute-force", "attr-heuristic", "factorial-2k"}

// scaleSelectors are the selectors of the committed E15 summary.
var scaleSelectors = []string{"brute-force", "attr-heuristic"}

func newSimWorkload(cfg config) *simWorkload {
	s := &simWorkload{cfg: cfg, shards: min(2, runtime.NumCPU()), artifact: "results/scale_summary.json"}
	if cfg.workload == "verify-grid" {
		s.artifact = "results/sweep_summary.json"
	}
	return s
}

// buildRows generates the workload's scenarios. Seed offsets every spec's
// MicroSpec.Seed; offset 0 is the committed specs.
func (s *simWorkload) buildRows() []*simRow {
	var rows []*simRow
	if s.cfg.workload == "verify-grid" {
		for _, sp := range bench.VerificationScenarios(true) {
			if s.cfg.tiny && !(sp.Platform.Name == "whale-tcp" && sp.MsgSize == 1024 && sp.ProgressCalls == 1) {
				continue
			}
			class := "small"
			if sp.MsgSize >= 2*1024*1024 {
				class = "bulk"
			}
			rows = append(rows, &simRow{spec: sp, sels: verifySelectors, class: class})
		}
	} else {
		// E15 rows on bgp-16k, block placement. The 64-rank rows are the
		// committed specs; the large worlds run trimmed iteration counts so
		// a pass stays within a few seconds on both engines.
		e15 := bench.ScaleScenarios(false)
		ibcast64, allgather64, barrier64, barrier4096 := e15[0], e15[2], e15[4], e15[5]
		ibcast64short := ibcast64
		ibcast64short.Iterations = 6
		barrier4096.Iterations = 2
		ibcast1024 := ibcast64
		ibcast1024.Procs, ibcast1024.Iterations = 1024, 4
		rows = []*simRow{
			{spec: barrier64, sels: scaleSelectors, class: "dense"},
			{spec: allgather64, sels: scaleSelectors, class: "dense"},
			{spec: ibcast64, impls: []string{"ibcast-linear-seg128k"}, class: "sparse"},
			{spec: ibcast64short, class: "sparse"},
			{spec: barrier4096, impls: []string{"ibarrier-tree"}, class: "dense"},
			{spec: ibcast1024, impls: []string{"ibcast-torus-seg128k"}, class: "sparse"},
		}
		if s.cfg.tiny {
			rows = rows[:1]
		}
	}
	for _, r := range rows {
		r.spec.Seed += s.cfg.seed
		if s.cfg.workload == "scale-torus-pdes2" {
			r.spec.PDES = true
			r.spec.Shards = s.shards
		}
	}
	return rows
}

// setup generates the scenarios, lists every function set (FunctionNames
// builds a throwaway world per scenario), loads the committed rows, builds
// one world per distinct scenario shape as a timed probe, and runs the
// first op once as a warm-up.
func (s *simWorkload) setup() (time.Duration, error) {
	t0 := time.Now()
	rows := s.buildRows()
	var expect map[string]*bench.SummaryRow
	// Only offset 0 runs the committed specs, and the committed artifacts
	// come from the sequential engine (PDES differs by the modelled deltas
	// of DESIGN.md §13), so only those runs are checked row by row.
	if s.cfg.seed == 0 && s.cfg.workload != "scale-torus-pdes2" {
		var err error
		if expect, err = loadSummary(filepath.Join(s.cfg.root, s.artifact)); err != nil {
			return 0, err
		}
	}
	var ops []simOp
	for i, r := range rows {
		r.scenario = r.spec.String()
		r.names = r.spec.FunctionNames()
		if r.impls == nil {
			for fn := range r.names {
				r.fixed = append(r.fixed, fn)
			}
		}
		for _, want := range r.impls {
			fn := indexOf(r.names, want)
			if fn < 0 {
				return 0, fmt.Errorf("%s has no implementation %q", r.spec, want)
			}
			r.fixed = append(r.fixed, fn)
		}
		r.expect = expect[r.scenario]
		for _, fn := range r.fixed {
			ops = append(ops, simOp{row: i, fn: fn})
		}
		for _, sel := range r.sels {
			ops = append(ops, simOp{row: i, sel: sel})
		}
	}
	if expect != nil && s.cfg.workload == "verify-grid" && !s.cfg.tiny {
		for _, r := range rows {
			if r.expect == nil {
				return 0, fmt.Errorf("%s has no row for %s", s.artifact, r.spec)
			}
		}
	}
	s.rows, s.ops = rows, ops
	s.world = probeWorlds(rows)
	// Running the first op once lets lazy runtime and simulator state
	// (goroutine stacks, pools, first-world page faults) settle before the
	// first timed op; a user's first scenario pays the same.
	if o := s.runOp(s.ops[0], false, 0); o.err != nil {
		return 0, fmt.Errorf("warm-up %s: %w", rows[s.ops[0].row].spec, o.err)
	}
	return time.Since(t0), nil
}

// probeWorlds builds one world per distinct shape (platform, ranks,
// placement, engine) through the platform assembly entry points, timing
// each build and its allocation.
func probeWorlds(rows []*simRow) worldProbe {
	var wp worldProbe
	seen := map[string]bool{}
	var ms0, ms1 runtime.MemStats
	for i, r := range rows {
		sp := r.spec
		shape := fmt.Sprintf("%s np=%d placement=%d pdes=%v", sp.Platform.Name, sp.Procs, sp.Placement, sp.PDES)
		if seen[shape] {
			continue
		}
		seen[shape] = true
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		var err error
		if sp.PDES {
			_, err = sp.Platform.NewWorldPDES(sp.Procs, sp.Seed, sp.Placement, sp.Shards)
		} else {
			_, _, err = sp.Platform.NewWorldPlaced(sp.Procs, sp.Seed, sp.Placement)
		}
		t1 := time.Now()
		runtime.ReadMemStats(&ms1)
		if err != nil {
			// The same spec fails again in its ops, where it is counted.
			continue
		}
		wp.us += us(t1.Sub(t0))
		wp.allocKB += float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1024
		wp.spans = append(wp.spans, probeSpan{row: i, shape: shape, start: t0, end: t1})
	}
	return wp
}

func loadSummary(path string) (map[string]*bench.SummaryRow, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("committed artifact: %w", err)
	}
	var sum bench.SweepSummary
	if err := json.Unmarshal(b, &sum); err != nil {
		return nil, fmt.Errorf("committed artifact %s: %w", path, err)
	}
	rows := make(map[string]*bench.SummaryRow, len(sum.Rows))
	for i := range sum.Rows {
		rows[sum.Rows[i].Scenario] = &sum.Rows[i]
	}
	return rows, nil
}

func indexOf(xs []string, x string) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return -1
}

// opResult is one op's outcome.
type opResult struct {
	res bench.MicroResult
	rec *obs.Recorder
	err error
}

func (s *simWorkload) runOp(op simOp, traced bool, shards int) opResult {
	spec := s.rows[op.row].spec
	if spec.PDES && shards > 0 {
		spec.Shards = shards
	}
	var o opResult
	switch {
	case op.sel == "" && traced:
		o.res, o.rec, o.err = bench.RunFixedObserved(spec, op.fn)
	case op.sel == "":
		o.res, o.err = bench.RunFixed(spec, op.fn)
	case traced:
		o.res, o.rec, o.err = bench.RunADCLObserved(spec, op.sel)
	default:
		o.res, o.err = bench.RunADCL(spec, op.sel)
	}
	return o
}

// fingerprint is the exact virtual outcome of an op: every simulated field
// of its result, floats by bit pattern.
func fingerprint(r bench.MicroResult) string {
	return fmt.Sprintf("%s seed=%d|%s|%x|%s|%d|%d|%x", r.Spec, r.Spec.Seed, r.Impl,
		math.Float64bits(r.Total), r.Winner, r.Evals, r.DecidedIter, math.Float64bits(r.PostLearnPerIter))
}

func (s *simWorkload) pass(tr *tracer) passResult {
	return s.replay(tr, 0)
}

// replay runs the op sequence once, with the given PDES shard count (0 =
// the workload's), and checks every op against pass 0 and every row
// against the committed artifact.
func (s *simWorkload) replay(tr *tracer, shards int) passResult {
	var p passResult
	results := make([]opResult, len(s.ops))
	fps := make([]string, len(s.ops))
	scenarioSpan := map[int]int{}
	for i, op := range s.ops {
		row := s.rows[op.row]
		impl := op.sel
		if op.sel == "" {
			impl = row.names[op.fn]
		}
		var o opResult
		t0 := time.Now()
		tr.do(row.class, func() { o = s.runOp(op, tr != nil, shards) })
		t1 := time.Now()
		results[i] = o
		p.record(row.class, t1.Sub(t0))
		switch {
		case op.sel != "":
			p.adcl = append(p.adcl, float32(us(t1.Sub(t0))))
		case len(row.sels) > 0:
			p.fixed = append(p.fixed, float32(us(t1.Sub(t0))))
		}
		if o.err != nil {
			p.failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s %s: %v\n", row.spec, impl, o.err)
			continue
		}
		fps[i] = fingerprint(o.res)
		if tr != nil {
			if _, ok := scenarioSpan[op.row]; !ok {
				scenarioSpan[op.row] = tr.add(span{Kind: "scenario", Scenario: row.scenario, Class: row.class}, t0, t0)
			}
			parent := scenarioSpan[op.row]
			tr.add(span{Kind: "op", Parent: parent, Scenario: row.scenario, Impl: impl, Class: row.class}, t0, t1)
			if sc := parent - 1; sc >= 0 && sc < len(tr.spans) {
				tr.spans[sc].EndUs = us(t1.Sub(tr.t0))
			}
			if !s.counts.have {
				s.addCounts(o)
			}
		}
	}
	if tr != nil && !s.counts.have {
		s.counts.have = true
		for _, w := range s.world.spans {
			if parent, ok := scenarioSpan[w.row]; ok {
				tr.add(span{Kind: "world-build", Parent: parent, Scenario: w.shape}, w.start, w.end)
			}
		}
	}

	if s.ref == nil {
		s.ref = fps
		h := sha256.New()
		for _, fp := range fps {
			fmt.Fprintln(h, fp)
		}
		s.digest = hex.EncodeToString(h.Sum(nil))
		s.decide(results)
	} else {
		for i := range fps {
			if fps[i] != s.ref[i] && results[i].err == nil {
				p.failed++
				if len(s.rowFails) < 10 {
					s.rowFails = append(s.rowFails, fmt.Sprintf("not reproducible: %s", fps[i]))
				}
			}
		}
	}
	p.failed += s.checkRows(results)
	return p
}

func (s *simWorkload) addCounts(o opResult) {
	c := &s.counts
	c.virtual += o.res.Total
	if strings.HasPrefix(o.res.Impl, "adcl:") {
		c.evals += int64(o.res.Evals)
	}
	if o.rec == nil {
		return
	}
	m := o.rec.Metrics()
	c.progressCalls += m.ProgressCalls
	c.progressAdv += m.ProgressAdvanced
	c.rndvStalls += m.RendezvousStalls
	for _, n := range m.NIC {
		c.wireBytes += n.TxBytes
	}
}

// verification rebuilds the paper's verification record of a full row
// from its ops, so the decision logic is bench's own.
func (s *simWorkload) verification(row int, results []opResult) (*bench.Verification, bool) {
	r := s.rows[row]
	v := &bench.Verification{Spec: r.spec}
	for i, op := range s.ops {
		if op.row != row {
			continue
		}
		if results[i].err != nil {
			return nil, false
		}
		if op.sel == "" {
			v.Fixed = append(v.Fixed, results[i].res)
			if results[i].res.Total < v.Fixed[v.Best].Total {
				v.Best = len(v.Fixed) - 1
			}
		} else {
			v.ADCL = append(v.ADCL, results[i].res)
		}
	}
	return v, len(v.Fixed) > 0
}

// decide counts pass 0's correct decisions over the full rows.
func (s *simWorkload) decide(results []opResult) {
	s.decisions = map[string]int{}
	s.fullRows = 0
	for ri, r := range s.rows {
		if !r.full() || len(r.sels) == 0 {
			continue
		}
		v, ok := s.verification(ri, results)
		if !ok {
			continue
		}
		s.fullRows++
		for j, sel := range r.sels {
			if v.Correct(j) {
				s.decisions[sel]++
			}
		}
	}
}

// checkRows compares each row that has a committed counterpart: a full row
// must reproduce best, best_total and every selector's correct flag; a
// partial row that measures the committed best must reproduce best_total.
// A mismatched row fails all of its ops.
func (s *simWorkload) checkRows(results []opResult) int {
	failed := 0
	for ri, r := range s.rows {
		if r.expect == nil {
			continue
		}
		var problem string
		if r.full() {
			v, ok := s.verification(ri, results)
			if !ok {
				continue // op errors are already counted
			}
			best := v.Fixed[v.Best]
			switch {
			case best.Impl != r.expect.Best:
				problem = fmt.Sprintf("best %s, committed %s", best.Impl, r.expect.Best)
			case best.Total != r.expect.BestTotal:
				problem = fmt.Sprintf("best_total %v, committed %v", best.Total, r.expect.BestTotal)
			}
			for j, sel := range r.sels {
				if want, ok := r.expect.Correct[sel]; !ok || v.Correct(j) != want {
					problem += fmt.Sprintf(" correct[%s]=%v, committed %v", sel, v.Correct(j), want)
				}
			}
		} else {
			for i, op := range s.ops {
				if op.row == ri && op.sel == "" && results[i].err == nil && r.names[op.fn] == r.expect.Best &&
					results[i].res.Total != r.expect.BestTotal {
					problem = fmt.Sprintf("%s total %v, committed best_total %v", r.expect.Best, results[i].res.Total, r.expect.BestTotal)
				}
			}
		}
		if problem == "" {
			continue
		}
		if len(s.rowFails) < 10 {
			s.rowFails = append(s.rowFails, fmt.Sprintf("%s: %s (%s)", r.spec, strings.TrimSpace(problem), s.artifact))
		}
		for _, op := range s.ops {
			if op.row == ri {
				failed++
			}
		}
	}
	return failed
}

func (s *simWorkload) finish(rep *report) {
	if s.cfg.workload == "scale-torus-pdes2" {
		// The sharded engine promises identical results at every shard
		// count: replay the pass on one shard, untimed.
		p := s.replay(nil, 1)
		rep.attempted += p.ops
		rep.failed += p.failed
		rep.notes = append(rep.notes, fmt.Sprintf("pdes: %d shards, single-shard replay %s", s.shards, okText(p.failed == 0)))
	}
	checked := 0
	for _, r := range s.rows {
		if r.expect != nil {
			checked++
		}
	}
	if checked > 0 {
		rep.notes = append(rep.notes, fmt.Sprintf("check: %d rows against %s", checked, s.artifact))
	} else {
		rep.notes = append(rep.notes, fmt.Sprintf("check: no committed rows apply (seed offset %d, %s); digest and pass-to-pass identity only", s.cfg.seed, s.cfg.workload))
	}
	rep.notes = append(rep.notes, "digest: "+s.digest)
	if s.fullRows > 0 {
		line := "decisions:"
		for _, sel := range s.rows[0].sels {
			c := s.decisions[sel]
			line += fmt.Sprintf(" %s %d/%d (%.1f%%)", sel, c, s.fullRows, 100*float64(c)/float64(s.fullRows))
		}
		if s.cfg.workload == "verify-grid" {
			line += "; paper §IV-A: brute-force 90%, attr-heuristic 92%"
		}
		rep.notes = append(rep.notes, line)
	}
	for _, f := range s.rowFails {
		rep.notes = append(rep.notes, "MISMATCH "+f)
	}
	if !rep.cfg.trace {
		return
	}
	set := func(name string, v float64) { setLayer(rep, name, v) }
	set("platform.world_us", s.world.us)
	set("platform.world_alloc_kb", s.world.allocKB)
	set("sim.virtual_s", s.counts.virtual)
	set("netmodel.wire_bytes", float64(s.counts.wireBytes))
	set("mpi.rndv_stalls", float64(s.counts.rndvStalls))
	set("nbc.progress_calls", float64(s.counts.progressCalls))
	set("nbc.progress_advanced", float64(s.counts.progressAdv))
	if s.counts.progressCalls > 0 {
		set("nbc.progress_useful_ratio", float64(s.counts.progressAdv)/float64(s.counts.progressCalls))
	}
	set("core.evals", float64(s.counts.evals))
	for sel, c := range s.decisions {
		set("core.correct."+sel, float64(c))
	}
}

func okText(ok bool) string {
	if ok {
		return "identical"
	}
	return "DIFFERS"
}

func (s *simWorkload) close() {}
