package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// traceFile is what a traced run writes at exit: the host, the run's
// notes and metrics, the CPU buckets with the hottest leaf functions, and
// every span kept in memory.
type traceFile struct {
	Host         host              `json:"host"`
	Workload     string            `json:"workload"`
	Seed         int64             `json:"seed"`
	Seconds      float64           `json:"seconds"`
	Notes        []string          `json:"notes"`
	EndToEnd     map[string]metric `json:"end_to_end_untraced"`
	Layers       map[string]metric `json:"per_layer"`
	CPUSamples   int64             `json:"cpu_samples"`
	TopLeaves    []leafShare       `json:"top_leaves"`
	Spans        []span            `json:"spans"`
	SpansDropped int               `json:"spans_dropped"`
}

// writeTrace stores the traced run's spans and bucketed profile (JSON) and
// the raw CPU profile (for go tool pprof) under cfg.outDir.
func writeTrace(cfg config, rep *report) error {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	stem := filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed))
	tf := traceFile{
		Host: rep.host, Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds,
		Notes: rep.notes, EndToEnd: rep.e2e, Layers: rep.layers,
		CPUSamples: rep.attrib.total, TopLeaves: rep.attrib.topLeaves(40),
		Spans: rep.tracer.spans, SpansDropped: rep.tracer.dropped,
	}
	b, err := json.Marshal(tf)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := os.WriteFile(stem+".trace.json", b, 0o644); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := os.WriteFile(stem+".cpu.pb.gz", rep.profile, 0o644); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	rep.notes = append(rep.notes, "trace written to "+stem+".trace.json and "+stem+".cpu.pb.gz")
	return nil
}
