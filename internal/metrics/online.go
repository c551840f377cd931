package metrics

import (
	"time"

	"gridbw/internal/units"
)

// Online accumulates lifetime admission statistics for a long-running
// reservation service — the streaming counterpart of Evaluate, which needs
// a complete batch outcome. It is a plain value: callers (the gridbwd
// server) hold their own lock, and the exported fields marshal directly
// into snapshots so a restarted daemon resumes its counters.
type Online struct {
	Submitted uint64 `json:"submitted"`
	Accepted  uint64 `json:"accepted"`
	Rejected  uint64 `json:"rejected"`
	Cancelled uint64 `json:"cancelled"`
	Expired   uint64 `json:"expired"`
	// GrantedVolume sums vol(r) over accepted requests.
	GrantedVolume units.Volume `json:"granted_volume_bytes"`
	// GrantedRateSum sums bw(r) over accepted requests; with Accepted it
	// yields the mean granted rate without storing per-request records.
	GrantedRateSum units.Bandwidth `json:"granted_rate_sum_bps"`
	// Shed counts submissions refused before admission because the daemon
	// was over its in-flight limit; they are not counted in Submitted.
	Shed uint64 `json:"shed,omitempty"`
	// IdempotentHits counts retried submissions answered from the
	// idempotency cache instead of being admitted a second time.
	IdempotentHits uint64 `json:"idempotent_hits,omitempty"`
	// Panics counts handler panics recovered by the HTTP middleware.
	Panics uint64 `json:"panics,omitempty"`
	// Batches counts served SubmitBatch calls; BatchRequests sums the
	// submissions they carried, so BatchRequests/Batches is the mean batch
	// size. Submissions inside a batch also count toward Submitted.
	Batches       uint64 `json:"batches,omitempty"`
	BatchRequests uint64 `json:"batch_requests,omitempty"`
	// LogAppendFailures counts WAL or decision-sink appends that failed.
	// Any non-zero value flips the daemon into durability-degraded mode:
	// it keeps serving, but the audit trail has a hole and a crash could
	// forget decisions made past the failure.
	LogAppendFailures uint64 `json:"log_append_failures,omitempty"`
	// Reseeds counts the times a follower's pull cursor was compacted away
	// and it rebuilt itself from a checkpoint shipped on its replication
	// stream instead of resyncing by hand.
	Reseeds uint64 `json:"reseeds,omitempty"`
	// SyncDegraded counts submissions whose synchronous-ack wait hit its
	// deadline and degraded to async durability: the decision was admitted
	// and WAL'd locally, but the required follower acks never arrived in
	// time, so its replication guarantee is the async loss window again.
	SyncDegraded uint64 `json:"sync_degraded,omitempty"`
	// VoteRounds counts the promotion vote rounds this node ran as a
	// candidate; VotesGranted and VotesDenied count the answers collected
	// across them (unreachable peers count as denied). QuorumHolds counts
	// rounds that failed to reach a majority — each one is a promotion the
	// quorum gate refused.
	VoteRounds   uint64 `json:"vote_rounds,omitempty"`
	VotesGranted uint64 `json:"votes_granted,omitempty"`
	VotesDenied  uint64 `json:"votes_denied,omitempty"`
	QuorumHolds  uint64 `json:"quorum_holds,omitempty"`
	// AdmitLatency is the wall-clock admission-latency histogram — how long
	// each submission spent in the server's decide pipeline — so
	// server-observed latency can sit next to what a load harness measures
	// from outside. It is deliberately excluded from snapshots: latency is
	// a property of the running process, not of recovered state, and the
	// histogram's atomics must never be JSON-copied. RecordAdmitLatency
	// lazily creates it under the caller's lock, so a restored Online (whose
	// pointer the snapshot wiped) heals on the next recorded decision.
	AdmitLatency *Histogram `json:"-"`
}

// RecordAccept counts an accepted request with its granted rate and volume.
func (o *Online) RecordAccept(bw units.Bandwidth, vol units.Volume) {
	o.Submitted++
	o.Accepted++
	o.GrantedRateSum += bw
	o.GrantedVolume += vol
}

// RecordReject counts a rejected request.
func (o *Online) RecordReject() {
	o.Submitted++
	o.Rejected++
}

// RecordCancel counts a client-cancelled reservation.
func (o *Online) RecordCancel() { o.Cancelled++ }

// RecordExpire counts a reservation whose window passed (transfer done).
func (o *Online) RecordExpire() { o.Expired++ }

// RecordShed counts a submission refused by overload protection.
func (o *Online) RecordShed() { o.Shed++ }

// RecordIdempotentHit counts a retry answered from the idempotency cache.
func (o *Online) RecordIdempotentHit() { o.IdempotentHits++ }

// RecordPanic counts a recovered handler panic.
func (o *Online) RecordPanic() { o.Panics++ }

// RecordBatch counts one served batch call carrying n submissions.
func (o *Online) RecordBatch(n int) {
	o.Batches++
	o.BatchRequests += uint64(n)
}

// RecordLogAppendFailure counts a WAL or decision-sink append that failed.
func (o *Online) RecordLogAppendFailure() { o.LogAppendFailures++ }

// RecordReseed counts a re-seed after the pull cursor was compacted away.
func (o *Online) RecordReseed() { o.Reseeds++ }

// RecordSyncDegraded counts a submission whose sync-ack wait timed out
// and fell back to async durability.
func (o *Online) RecordSyncDegraded() { o.SyncDegraded++ }

// RecordVoteRound counts one promotion vote round: the answers it
// collected and whether the round reached a majority.
func (o *Online) RecordVoteRound(granted, denied int, quorum bool) {
	o.VoteRounds++
	o.VotesGranted += uint64(granted)
	o.VotesDenied += uint64(denied)
	if !quorum {
		o.QuorumHolds++
	}
}

// RecordAdmitLatency records how long one submission spent in the decide
// pipeline. Like every Online mutation it runs under the caller's lock;
// the histogram itself is atomic, so readers holding only a copied Online
// may keep querying the shared pointer afterwards.
func (o *Online) RecordAdmitLatency(d time.Duration) {
	if o.AdmitLatency == nil {
		o.AdmitLatency = NewHistogram()
	}
	o.AdmitLatency.Record(d)
}

// DurabilityDegraded reports whether any decision fell short of its
// durability promise — a failed audit-log append, or a sync-ack wait
// that timed out — the health signal operators page on.
func (o *Online) DurabilityDegraded() bool {
	return o.LogAppendFailures > 0 || o.SyncDegraded > 0
}

// AcceptRate reports Accepted/Submitted, the online MAX-REQUESTS
// objective; 0 before any submission.
func (o *Online) AcceptRate() float64 {
	if o.Submitted == 0 {
		return 0
	}
	return float64(o.Accepted) / float64(o.Submitted)
}

// MeanGrantedRate reports the mean bw(r) over accepted requests, 0 before
// any acceptance.
func (o *Online) MeanGrantedRate() units.Bandwidth {
	if o.Accepted == 0 {
		return 0
	}
	return o.GrantedRateSum / units.Bandwidth(o.Accepted)
}
