package mpi

// refMatcher is an executable specification of the pre-indexed matching
// engine: the exact front-to-back scans and append-removals p2p.go used
// before the bucketed rewrite. The matching-order property test drives it in
// lockstep with the indexed matcher on random post/arrive interleavings, and
// cmd/bench's mpi gate (BENCH_mpi.json) quantifies the rewrite against
// it. Matching depends only on (ctx, src, tag) triples, so the reference
// carries bare triples plus an id for cross-checking.
type refItem struct {
	ctx, src, tag int
	id            int
}

type refMatcher struct {
	posted []refItem
	eager  []refItem
	rts    []refItem
}

func refMatches(rctx, rsrc, rtag int, e refItem) bool {
	return rctx == e.ctx &&
		(rsrc == AnySource || rsrc == e.src) &&
		(rtag == AnyTag || rtag == e.tag)
}

// refQueueNone etc. name which unexpected queue a posted receive consumed
// from.
const (
	refQueueNone = iota
	refQueueEager
	refQueueRTS
)

// post mirrors irecv: consume the earliest matching unexpected eager
// envelope, else the earliest matching unexpected RTS, else append to the
// posted queue. Returns the consumed envelope's id and its queue class
// (refQueueNone when the receive was queued).
func (m *refMatcher) post(ctx, src, tag, id int) (envID, queue int) {
	for i, e := range m.eager {
		if refMatches(ctx, src, tag, e) {
			m.eager = append(m.eager[:i], m.eager[i+1:]...)
			return e.id, refQueueEager
		}
	}
	for i, e := range m.rts {
		if refMatches(ctx, src, tag, e) {
			m.rts = append(m.rts[:i], m.rts[i+1:]...)
			return e.id, refQueueRTS
		}
	}
	m.posted = append(m.posted, refItem{ctx: ctx, src: src, tag: tag, id: id})
	return -1, refQueueNone
}

// arrive mirrors processEager/processRTS: match the earliest posted receive,
// else queue the envelope as unexpected in its protocol class. Returns the
// matched receive's id, or -1 when the envelope was queued.
func (m *refMatcher) arrive(ctx, src, tag, id int, rts bool) int {
	for i, p := range m.posted {
		if refMatches(p.ctx, p.src, p.tag, refItem{ctx: ctx, src: src, tag: tag}) {
			m.posted = append(m.posted[:i], m.posted[i+1:]...)
			return p.id
		}
	}
	if rts {
		m.rts = append(m.rts, refItem{ctx: ctx, src: src, tag: tag, id: id})
	} else {
		m.eager = append(m.eager, refItem{ctx: ctx, src: src, tag: tag, id: id})
	}
	return -1
}

// probe mirrors Iprobe: the earliest matching unexpected envelope, eager
// class first. Returns its id or -1.
func (m *refMatcher) probe(ctx, src, tag int) int {
	for _, e := range m.eager {
		if refMatches(ctx, src, tag, e) {
			return e.id
		}
	}
	for _, e := range m.rts {
		if refMatches(ctx, src, tag, e) {
			return e.id
		}
	}
	return -1
}
