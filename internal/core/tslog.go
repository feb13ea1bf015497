package core

import (
	"sort"

	"github.com/paper-repro/ccbm/internal/spec"
)

// tsEntry is one timestamped update in a tsLog.
type tsEntry struct {
	ts totalTS
	in spec.Input
}

// tsLog is the timestamp-ordered update log of one Station object in
// the convergent modes (EC, CCv): updates are inserted at their totalTS
// position and reads fold base+log through a replay cache. The cache
// discipline: cacheState is the fold of base plus log[:cacheLen]; an
// insertion below cacheLen invalidates it, a full replay re-arms it.
type tsLog struct {
	t spec.ADT

	log        []tsEntry
	base       spec.State
	cacheState spec.State
	cacheLen   int
}

func newTSLog(t spec.ADT) *tsLog {
	base := t.Init()
	return &tsLog{t: t, base: base, cacheState: base}
}

// insert places the update at its timestamp-ordered position and
// returns that position.
func (l *tsLog) insert(ts totalTS, in spec.Input) int {
	pos := sort.Search(len(l.log), func(i int) bool { return ts.less(l.log[i].ts) })
	l.log = append(l.log, tsEntry{})
	copy(l.log[pos+1:], l.log[pos:])
	l.log[pos] = tsEntry{ts: ts, in: in}
	if pos < l.cacheLen {
		// Mid-log insertion invalidates the replay cache.
		l.cacheState = l.base
		l.cacheLen = 0
	}
	return pos
}

// replay folds base plus log[:n], advancing the cache when possible.
func (l *tsLog) replay(n int) spec.State {
	if n >= l.cacheLen {
		q := l.cacheState
		for i := l.cacheLen; i < n; i++ {
			q, _ = l.t.Step(q, l.log[i].in)
		}
		if n == len(l.log) {
			l.cacheState, l.cacheLen = q, n
		}
		return q
	}
	q := l.base
	for i := 0; i < n; i++ {
		q, _ = l.t.Step(q, l.log[i].in)
	}
	return q
}

// state returns the fold of the whole log.
func (l *tsLog) state() spec.State { return l.replay(len(l.log)) }

// size returns the number of live log entries.
func (l *tsLog) size() int { return len(l.log) }

// seed resets the log to an externally produced base state with no
// live entries — the migration import path. Every update folded into
// base is strictly "in the past" of any entry inserted later, the same
// invariant compact establishes for its folded prefix.
func (l *tsLog) seed(base spec.State) {
	l.base = base
	l.log = nil
	l.cacheState, l.cacheLen = base, 0
}

// compact folds away the prefix of entries with VT <= stableVT and
// returns how many were removed. The soundness condition — no future
// insert may be ordered inside the folded prefix — is the caller's to
// establish (see Station.Compact).
func (l *tsLog) compact(stableVT int) int {
	idx := sort.Search(len(l.log), func(i int) bool { return l.log[i].ts.VT > stableVT })
	if idx == 0 {
		return 0
	}
	q := l.base
	for i := 0; i < idx; i++ {
		q, _ = l.t.Step(q, l.log[i].in)
	}
	l.base = q
	l.log = append([]tsEntry(nil), l.log[idx:]...)
	l.cacheState, l.cacheLen = l.base, 0
	return idx
}
