// Package cjdbc simulates C-JDBC 2.0, the database clustering middleware
// of the paper's database tier: a controller exposing one virtual
// database over a set of fully mirrored MySQL backends. Reads are
// balanced across active backends; writes are broadcast to all of them in
// a single total order.
//
// Its distinguishing feature for this paper is the *recovery log* (§4.1):
// every write request is logged and indexed, so that a newly allocated
// replica can be brought up to date by replaying exactly the writes it
// missed, and a removed replica is remembered by the index of the last
// write it executed before being disabled. A record keeps the request's
// executable statement, shared with the request that wrote it; replay runs
// it without parsing, and the record renders its SQL text on demand.
package cjdbc

import "jade/internal/legacy"

// LogRecord is one indexed write request in the recovery log.
type LogRecord struct {
	// Index is the position of this write in the global write order;
	// the first write has index 0.
	Index int64
	// Query is the logged write request: its statement (Stmt; SQL too
	// if it came as text) and its CPU cost, reused when the record is
	// replayed on a stale replica. Query.Text renders its SQL.
	Query legacy.Query
}

// RecoveryLog is the append-only indexed store of write requests. The
// paper implements it as "a particular database whose purpose is to keep
// track of all the requests that affect the state of the database".
type RecoveryLog struct {
	records []LogRecord
	// checkpoints remembers, per disabled backend, the index *after* the
	// last write it executed — i.e. the position replay must resume from.
	checkpoints map[string]int64
}

// NewRecoveryLog returns an empty log.
func NewRecoveryLog() *RecoveryLog {
	return &RecoveryLog{checkpoints: make(map[string]int64)}
}

// Append logs a write request and returns its index. The record holds the
// request as it executes, its statement in q.Stmt, which the controller
// has built from whatever form the request came in; a replica that replays
// the record runs that statement, and nothing in the record is copied: a
// statement is immutable once built.
func (l *RecoveryLog) Append(q legacy.Query) int64 {
	idx := int64(len(l.records))
	l.records = append(l.records, LogRecord{Index: idx, Query: q})
	return idx
}

// Len returns the number of logged writes (also the index the next write
// will get).
func (l *RecoveryLog) Len() int64 { return int64(len(l.records)) }

// At returns the record at index.
func (l *RecoveryLog) At(index int64) (LogRecord, bool) {
	if index < 0 || index >= int64(len(l.records)) {
		return LogRecord{}, false
	}
	return l.records[index], true
}

// SetCheckpoint records that a disabled backend has executed every write
// below index.
func (l *RecoveryLog) SetCheckpoint(backend string, index int64) {
	l.checkpoints[backend] = index
}

// Checkpoint returns the recorded resume index for a backend name; ok is
// false if the backend was never checkpointed (a brand-new replica).
func (l *RecoveryLog) Checkpoint(backend string) (int64, bool) {
	idx, ok := l.checkpoints[backend]
	return idx, ok
}

// Checkpoints returns a copy of every recorded checkpoint, keyed by
// backend name. Invariant checkers use it to verify that checkpoint
// indices only ever move forward.
func (l *RecoveryLog) Checkpoints() map[string]int64 {
	out := make(map[string]int64, len(l.checkpoints))
	for name, idx := range l.checkpoints {
		out[name] = idx
	}
	return out
}

// DropCheckpoint forgets a backend's checkpoint (after it rejoins).
func (l *RecoveryLog) DropCheckpoint(backend string) {
	delete(l.checkpoints, backend)
}
