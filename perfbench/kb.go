package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"nbctune/internal/kb"
)

// kbWorkload is kb-closed: an in-process kb daemon on loopback driven by
// nproc closed-loop clients (each waits for its reply, like `tune -kb`
// callers), replaying kb.FixtureQueries lookups with writes beside them.
// The daemon writes its access log to a file, one write(2) per request
// under the log's mutex, as cmd/tuned does to its standard error.
// Every answer is checked against an in-memory kb.Store oracle that
// receives the same operations; clients write only their own key
// namespace, disjoint from the fixture and from each other, so the oracle
// stays exact under concurrency.
type kbWorkload struct {
	cfg     config
	clients int
	perPass int // requests per client per pass

	srv     *kb.Server
	logf    *os.File // the daemon's access log
	base    string
	tport   *http.Transport
	hc      *http.Client
	oracle  *kb.Store
	streams [][]kbReq

	mu       sync.Mutex
	mismatch []string
}

const (
	reqLookup = iota
	reqRecord
	reqBatch
)

type kbReq struct {
	kind     int
	url      string
	body     []byte
	key, env string      // lookups
	recs     []kb.Record // writes
}

// kbWriteKeys is the size of each client's own key space: writes revisit
// keys, so the LWW-by-score rule both applies and rejects.
const kbWriteKeys = 64

// The write mix comes from the repository's own kb callers:
//   - kbRecordEvery: one request in ten is a synchronous /v1/record, the
//     mix cmd/kbbench drives (nine lookups to one record);
//   - kbBatchSize: cmd/tune records the decision it tunes after a kb miss
//     through kb.Client.Record, which uploads a coalesced /v1/batch once
//     this many records are queued (kb.ClientOptions' default BatchSize).
const (
	kbRecordEvery = 10
	kbBatchSize   = 32
)

func newKBWorkload(cfg config) *kbWorkload {
	k := &kbWorkload{cfg: cfg, clients: runtime.NumCPU(), perPass: 5000}
	if cfg.tiny {
		k.perPass = 200 // enough misses for one /v1/batch per client
	}
	return k
}

// setup stops the previous daemon (untimed), then generates the request
// streams, starts a daemon with the fixture loaded, and opens one
// connection per client.
func (k *kbWorkload) setup() (time.Duration, error) {
	k.close()
	t0 := time.Now()
	recs := k.cfg.kbDaemonRecords
	if recs == nil {
		recs = kb.FixtureRecords()
	}
	st := kb.NewStore(kb.StoreOptions{})
	st.PutBatch(recs)
	if err := os.MkdirAll(k.cfg.outDir, 0o755); err != nil {
		return 0, err
	}
	logf, err := os.Create(filepath.Join(k.cfg.outDir, "kb-access.log"))
	if err != nil {
		return 0, err
	}
	k.logf = logf
	srv, err := kb.Listen("127.0.0.1:0", st, kb.HandlerOptions{AccessLog: logf})
	if err != nil {
		return 0, err
	}
	srv.Serve()
	k.srv, k.base = srv, "http://"+srv.Addr
	k.oracle = kb.NewStore(kb.StoreOptions{})
	k.oracle.PutBatch(kb.FixtureRecords())
	k.streams = make([][]kbReq, k.clients)
	for c := range k.streams {
		k.streams[c] = k.stream(c)
	}
	k.tport = &http.Transport{MaxIdleConnsPerHost: k.clients, DisableCompression: true}
	k.hc = &http.Client{Transport: k.tport, Timeout: 10 * time.Second}
	var wg sync.WaitGroup
	errs := make([]error, k.clients)
	for c := 0; c < k.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			resp, err := k.hc.Get(k.base + "/healthz")
			if err != nil {
				errs[c] = err
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, fmt.Errorf("kb daemon warm-up: %w", err)
		}
	}
	return time.Since(t0), nil
}

// stream builds client c's request sequence: the seed picks the
// kb.FixtureQueries stream (~70% recorded keys, ~30% misses); every
// kbRecordEvery-th request is a /v1/record, and every kbBatchSize lookup
// misses are followed by a /v1/batch of kbBatchSize records.
func (k *kbWorkload) stream(c int) []kbReq {
	qs := kb.FixtureQueries(uint64(k.cfg.seed)*1024+uint64(c)+1, k.perPass)
	rng := rand.New(rand.NewPCG(uint64(k.cfg.seed), uint64(c)))
	fixture := map[string]bool{}
	for _, r := range kb.FixtureRecords() {
		fixture[kb.CombinedKey(r.Key, r.Env)] = true
	}
	winners := []string{"linear", "binomial", "ring", "bruck", "torus-seg32k"}
	own := func() kb.Record {
		return kb.Record{
			Key:    fmt.Sprintf("perfbench|client%d|k%d", c, rng.IntN(kbWriteKeys)),
			Winner: winners[rng.IntN(len(winners))],
			Score:  0.001 + float64(rng.IntN(100000))/1e6, // finite decimal: exact JSON round trip
			Evals:  3,
		}
	}
	reqs := make([]kbReq, 0, len(qs)+len(qs)/kbBatchSize)
	var queued []kb.Record
	for i, q := range qs {
		if i%kbRecordEvery == kbRecordEvery-1 {
			r := own()
			body, _ := json.Marshal(r) // a Record always marshals
			reqs = append(reqs, kbReq{kind: reqRecord, url: k.base + "/v1/record", body: body, recs: []kb.Record{r}})
			continue
		}
		v := url.Values{"key": {q.Key}}
		if q.Env != "" {
			v.Set("env", q.Env)
		}
		reqs = append(reqs, kbReq{kind: reqLookup, url: k.base + "/v1/lookup?" + v.Encode(), key: q.Key, env: q.Env})
		if fixture[kb.CombinedKey(q.Key, q.Env)] {
			continue
		}
		if queued = append(queued, own()); len(queued) == kbBatchSize {
			body, _ := json.Marshal(map[string][]kb.Record{"records": queued})
			reqs = append(reqs, kbReq{kind: reqBatch, url: k.base + "/v1/batch", body: body, recs: queued})
			queued = nil
		}
	}
	return reqs
}

func (k *kbWorkload) pass(tr *tracer) passResult {
	per := make([]passResult, k.clients)
	var wg sync.WaitGroup
	for c := 0; c < k.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, req := range k.streams[c] {
				var class string
				var err error
				var t0, t1 time.Time
				tr.do(kindName(req.kind), func() {
					t0 = time.Now()
					var body []byte
					body, err = k.send(req)
					t1 = time.Now()
					if err == nil {
						class, err = k.check(req, body)
					}
				})
				if err != nil {
					per[c].failed++
					k.note(fmt.Sprintf("client %d %s: %v", c, req.url, err))
				}
				if class == "" {
					class = kindName(req.kind)
				}
				per[c].record(class, t1.Sub(t0))
				tr.add(span{Kind: "op", Scenario: fmt.Sprintf("client%d", c), Impl: kindName(req.kind), Class: class}, t0, t1)
			}
		}(c)
	}
	wg.Wait()
	var p passResult
	for _, q := range per {
		p.merge(q)
	}
	p.seq = nil // the clients' requests interleave: no fixed op order (see typicalOp)
	return p
}

// requests is the number of requests in one pass, over all clients.
func (k *kbWorkload) requests() int {
	n := 0
	for _, s := range k.streams {
		n += len(s)
	}
	return n
}

func kindName(kind int) string {
	switch kind {
	case reqRecord:
		return "record"
	case reqBatch:
		return "batch"
	}
	return "lookup"
}

// send issues one request and returns the response body.
func (k *kbWorkload) send(req kbReq) ([]byte, error) {
	var resp *http.Response
	var err error
	if req.kind == reqLookup {
		resp, err = k.hc.Get(req.url)
	} else {
		resp, err = k.hc.Post(req.url, "application/json", bytes.NewReader(req.body))
	}
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

// check applies the request to the oracle and compares its answer with
// the daemon's; it returns the request's latency class.
func (k *kbWorkload) check(req kbReq, body []byte) (string, error) {
	if req.kind == reqLookup {
		var got struct {
			Found  bool       `json:"found"`
			Record *kb.Record `json:"record"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			return "", fmt.Errorf("bad lookup response: %w", err)
		}
		class := "lookup_miss"
		if got.Found {
			class = "lookup_hit"
		}
		want, ok := k.oracle.Lookup(req.key, req.env)
		switch {
		case got.Found != ok:
			return class, fmt.Errorf("found=%v, oracle %v", got.Found, ok)
		case ok && (got.Record == nil || *got.Record != want):
			return class, fmt.Errorf("record %+v, oracle %+v", got.Record, want)
		}
		return class, nil
	}
	var got struct {
		Applied int `json:"applied"`
		Total   int `json:"total"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return "", fmt.Errorf("bad write response: %w", err)
	}
	want := k.oracle.PutBatch(req.recs)
	if got.Applied != want || got.Total != len(req.recs) {
		return kindName(req.kind), fmt.Errorf("applied %d/%d, oracle %d/%d", got.Applied, got.Total, want, len(req.recs))
	}
	return kindName(req.kind), nil
}

func (k *kbWorkload) note(s string) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if len(k.mismatch) < 10 {
		k.mismatch = append(k.mismatch, s)
	}
}

// finish compares the daemon's own counters (GET /v1/stats) with the
// oracle's: both saw the same fixture load, lookups and writes.
func (k *kbWorkload) finish(rep *report) {
	rep.notes = append(rep.notes,
		fmt.Sprintf("kb: %d closed-loop clients, %d requests per pass, access log written to %s", k.clients, k.requests(), k.logf.Name()),
		fmt.Sprintf("check: %d of %d answers differ from the oracle", rep.failed, rep.attempted))
	rep.attempted++
	var got kb.Stats
	body, err := k.send(kbReq{kind: reqLookup, url: k.base + "/v1/stats"})
	if err == nil {
		err = json.Unmarshal(body, &got)
	}
	want := k.oracle.Stats()
	if err == nil && (got.Records != want.Records || got.Lookups != want.Lookups || got.Hits != want.Hits ||
		got.Puts != want.Puts || got.Applied != want.Applied || got.Rejected != want.Rejected) {
		err = fmt.Errorf("daemon stats %+v, oracle %+v", got, want)
	}
	if err != nil {
		rep.failed++
		k.note("GET /v1/stats: " + err.Error())
	} else {
		rep.notes = append(rep.notes, fmt.Sprintf("check: the daemon's /v1/stats match the oracle (%d lookups, %d hits, %d puts, %d applied)",
			got.Lookups, got.Hits, got.Puts, got.Applied))
	}
	for _, m := range k.mismatch {
		rep.notes = append(rep.notes, "MISMATCH "+m)
	}
	if rep.cfg.trace && got.Lookups > 0 && got.Puts > 0 {
		setLayer(rep, "kb.hit_ratio", float64(got.Hits)/float64(got.Lookups))
		setLayer(rep, "kb.applied_ratio", float64(got.Applied)/float64(got.Puts))
	}
}

func (k *kbWorkload) close() {
	if k.srv != nil {
		k.tport.CloseIdleConnections()
		k.srv.Shutdown(2 * time.Second) // the store has no snapshot to flush
		k.srv = nil
	}
	if k.logf != nil {
		_ = k.logf.Close() // nothing reads the log: it is there to be written
		k.logf = nil
	}
}
