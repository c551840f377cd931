package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"time"

	"gridbw/internal/metrics"
	"gridbw/internal/topology"
	"gridbw/internal/units"
	"gridbw/internal/wire"
)

// The HTTP surface of gridbwd: the request plane's seven routes, whose
// methods and paths are the rows of internal/wire's op table (submit,
// batch, the three hold lists, lookup and cancel by id), then status,
// metricsz (JSON, or Prometheus text under Accept: text/plain), healthz
// (503 while draining) and the replication routes.
//
// Each request-plane route is a call (calls.go): JSON is a codec in front
// of it (jsonface.go), the internal wire's frames are the call as it is. A
// body of either is read under wire.MaxFrameBytes (8 MiB) before anything
// else. Submissions may carry an Idempotency-Key header (or the equivalent
// body field) of at most wire.MaxKeyBytes, making retries safe, and the
// submissions and RESERVE are bounded by the server's in-flight limit:
// excess calls get 429 with a Retry-After hint instead of queueing without
// bound.
//
// Lookup and cancel answer from bounded caches: a reservation stays
// queryable after it expires or is cancelled only until FinishedRetention
// newer terminal reservations push it out, after which GET and DELETE
// return 404. The idempotency cache is bounded the same way — an evicted
// key behaves like a fresh one and books again — so clients should not
// retry across more than FinishedRetention intervening submissions.
//
// The request and answer shapes, and the control plane's pages, are
// internal/wire's.

// Handler returns the daemon's HTTP API: the route mux behind the
// panic-recovery middleware. The seven request-plane routes are the op
// table's, each a call (CallRoute): a framed one goes through Call as it is
// and may take its connection over for the call stream, a JSON one through
// its op's codec in front of Call.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	face := JSONFace{MaxBatch: s.maxBatch}
	for op := wire.OpSubmit; op.Valid(); op++ {
		mux.Handle(op.Pattern(), CallRoute(&s.conns, s.Call, op, face))
	}
	mux.HandleFunc("GET /v1/status", s.handleStatus)
	mux.HandleFunc("GET /v1/metricsz", s.handleMetricsz)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/replication/pull", s.handleReplPull)
	mux.HandleFunc("GET /v1/replication/status", s.handleReplStatus)
	mux.HandleFunc("POST /v1/replication/promote", s.handlePromote)
	mux.HandleFunc("POST /v1/replication/vote", s.handleVote)
	return s.Recoverer(mux)
}

// Recoverer converts handler panics into 500 responses instead of
// killing the connection (and, under net/http, only that goroutine —
// leaving the daemon in an untracked half-broken state). Each recovered
// panic is counted and recorded in the WAL.
func (s *Server) Recoverer(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				s.recordPanic(r.Method+" "+r.URL.Path, v)
				WriteError(w, http.StatusInternalServerError, fmt.Errorf("internal error"))
			}
		}()
		next.ServeHTTP(w, r)
	})
}

var errOverloaded = errors.New("server: overloaded, retry later")

// shedReply is the answer to a call over the in-flight limit: 429 with the
// Retry-After hint, so overload degrades into fast, explicit backpressure
// instead of queueing without bound.
func (s *Server) shedReply() Reply {
	rep := ErrorReply(http.StatusTooManyRequests, errOverloaded)
	rep.RetryAfter = int((s.retryAfter + time.Second - 1) / time.Second)
	return rep
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := s.Status()
	body := wire.HealthJSON{
		Status:             "ok",
		NowS:               float64(st.Now),
		Role:               st.Role,
		Epoch:              st.Epoch,
		InFlight:           s.InFlight(),
		MaxInFlight:        s.InFlightLimit(),
		Shed:               st.Stats.Shed,
		DurabilityDegraded: st.Stats.DurabilityDegraded(),
		WALPoisoned:        s.WALPoisoned(),
	}
	if st.Role == "follower" {
		body.ReplicationLagBytes = s.ReplicationStatus().LagBytes
	}
	code := http.StatusOK
	if body.DurabilityDegraded || body.WALPoisoned {
		body.Status = "degraded"
	}
	if s.Closed() {
		body.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	WriteJSON(w, code, body)
}

// Header values every answer sets, preset so that setting one allocates
// nothing. Shared by all responses and never written to.
var (
	jsonContentType  = []string{"application/json"}
	frameContentType = []string{wire.ContentType}
)

// WriteJSON answers with v as a JSON body.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// WriteError answers with the ErrorJSON envelope of every non-2xx response.
func WriteError(w http.ResponseWriter, code int, err error) {
	WriteJSON(w, code, wire.ErrorJSON{Error: err.Error()})
}

// Framed reports whether the caller speaks the internal wire's frames
// rather than JSON; the answer goes back in the same codec. Errors answer
// as JSON envelopes either way — status codes carry the contract.
func Framed(r *http.Request) bool {
	return strings.HasPrefix(r.Header.Get("Content-Type"), wire.ContentType)
}

// decodeJSON is the strict JSON decode of a request body; what names the
// body in the error.
func decodeJSON(body io.Reader, what string, v any) error {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decode %s: %w", what, err)
	}
	return nil
}

// mergeKey merges a submission's body key with its Idempotency-Key
// request header, the equivalent spelling: either may be absent, but two
// that disagree are an error.
func mergeKey(headerKey, bodyKey string) (string, error) {
	if err := wire.CheckKey("Idempotency-Key header", headerKey); err != nil {
		return "", err
	}
	if headerKey == "" {
		return bodyKey, nil
	}
	if bodyKey != "" && bodyKey != headerKey {
		return "", fmt.Errorf("idempotency_key body field and Idempotency-Key header disagree")
	}
	return headerKey, nil
}

// nowFor reads the service clock once for the records of one call, so they
// share a consistent "now" — and only if one of them carries a relative
// time: a call without any never takes the clock's lock.
func (s *Server) nowFor(subs ...wire.Submission) units.Time {
	for i := range subs {
		if subs[i].RelNotBefore || subs[i].RelDeadline {
			return s.Now()
		}
	}
	return 0
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, statusJSON(s.Status()))
}

func statusJSON(st Status) wire.StatusJSON {
	body := wire.StatusJSON{
		NowS:               float64(st.Now),
		Policy:             st.Policy,
		Role:               st.Role,
		Epoch:              st.Epoch,
		Booked:             st.Booked,
		Active:             st.Active,
		Submitted:          st.Stats.Submitted,
		Accepted:           st.Stats.Accepted,
		Rejected:           st.Stats.Rejected,
		Cancelled:          st.Stats.Cancelled,
		Expired:            st.Stats.Expired,
		Shed:               st.Stats.Shed,
		IdempotentHits:     st.Stats.IdempotentHits,
		Panics:             st.Stats.Panics,
		Batches:            st.Stats.Batches,
		BatchRequests:      st.Stats.BatchRequests,
		AcceptRate:         st.Stats.AcceptRate(),
		MeanGrantedBps:     float64(st.Stats.MeanGrantedRate()),
		LogAppendFailures:  st.Stats.LogAppendFailures,
		DurabilityDegraded: st.Stats.DurabilityDegraded(),
	}
	for _, p := range st.Points {
		body.Points = append(body.Points, wire.PointJSON{
			Dir:         p.Dir.String(),
			Point:       int(p.Point),
			CapacityBps: float64(p.Capacity),
			UsedBps:     float64(p.Used),
			Utilization: p.Utilization,
		})
	}
	return body
}

// handleMetricsz negotiates the metrics encoding: Prometheus text
// exposition when the caller asks for text/plain (what a scraper sends),
// JSON otherwise.
func (s *Server) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	if strings.Contains(r.Header.Get("Accept"), "text/plain") {
		s.writeMetricsText(w)
		return
	}
	st := s.Status()
	rs := s.ReplicationStatus()
	body := wire.MetricsJSON{
		StatusJSON:          statusJSON(st),
		Reseeds:             st.Stats.Reseeds,
		ReplicationLagBytes: rs.LagBytes,
		AppliedRecords:      rs.Applied,
		SyncDegraded:        st.Stats.SyncDegraded,
		Followers:           rs.Followers,
		AdmitLatency:        st.Stats.AdmitLatencySummary(),
		WatchdogState:       s.watchdogStateNow(),
	}
	WriteJSON(w, http.StatusOK, body)
}

// writeMetricsText is the list of what gridbwd exports, in page order. How a
// page is spelled is internal/metrics' business (Exposition).
func (s *Server) writeMetricsText(w http.ResponseWriter) {
	st, rs := s.Status(), s.ReplicationStatus()
	w.Header().Set("Content-Type", metrics.ContentType)
	e := metrics.NewExposition(w)
	e.Counter("gridbwd_requests_submitted_total", "Submissions decided, accepted or rejected.").Set(st.Stats.Submitted)
	e.Counter("gridbwd_requests_accepted_total", "Submissions granted a reservation; over submitted, the paper's MAX-REQUESTS objective.").Set(st.Stats.Accepted)
	e.Counter("gridbwd_requests_rejected_total", "Submissions refused by admission control.").Set(st.Stats.Rejected)
	e.Counter("gridbwd_reservations_cancelled_total", "Reservations cancelled by their client.").Set(st.Stats.Cancelled)
	e.Counter("gridbwd_reservations_expired_total", "Reservations that ran to the end of their window.").Set(st.Stats.Expired)
	e.Counter("gridbwd_requests_shed_total", "Submissions refused with 429 over the in-flight limit, before admission.").Set(st.Stats.Shed)
	e.Counter("gridbwd_requests_idempotent_hits_total", "Retried submissions answered from the idempotency cache.").Set(st.Stats.IdempotentHits)
	e.Counter("gridbwd_handler_panics_total", "Handler panics recovered by the HTTP middleware.").Set(st.Stats.Panics)
	e.Counter("gridbwd_batches_total", "Batch calls served.").Set(st.Stats.Batches)
	e.Counter("gridbwd_batch_requests_total", "Submissions carried by batch calls.").Set(st.Stats.BatchRequests)
	e.Gauge("gridbwd_reservations_booked", "Reservations granted whose window has not started.").Set(st.Booked)
	e.Gauge("gridbwd_reservations_active", "Reservations inside their window.").Set(st.Active)
	point := func(dir topology.Direction, p topology.PointID) []string {
		return []string{"dir", dir.String(), "point", strconv.Itoa(int(p))}
	}
	e.Gauge("gridbwd_point_capacity_bps", "Capacity of an access point, in bytes per second.")
	for _, p := range st.Points {
		e.Set(float64(p.Capacity), point(p.Dir, p.Point)...)
	}
	e.Gauge("gridbwd_point_used_bps", "Bandwidth reserved at an access point now, in bytes per second; eq. (1) keeps it at or under capacity, and their ratio is RESOURCE-UTIL.")
	for _, p := range st.Points {
		e.Set(float64(p.Used), point(p.Dir, p.Point)...)
	}
	shards := s.ShardStats()
	e.Counter("gridbwd_shard_lock_acquisitions_total", "Acquisitions of an access point's admission lock.")
	for _, sh := range shards {
		e.Set(sh.Locks, point(sh.Dir, sh.Point)...)
	}
	e.Counter("gridbwd_shard_lock_contended_total", "Acquisitions of an access point's admission lock that had to wait.")
	for _, sh := range shards {
		e.Set(sh.Contended, point(sh.Dir, sh.Point)...)
	}
	e.Gauge("gridbwd_ledger_breakpoints", "Breakpoints stored over every access point's capacity profile: bounded by the live reservations, since a profile forgets what lies behind the clock.").Set(s.ledger.Breakpoints())
	e.Gauge("gridbwd_service_clock_seconds", "The service clock: seconds since this daemon's time zero.").Set(float64(st.Now))
	if lat := st.Stats.AdmitLatency; lat != nil {
		e.Summary("gridbwd_admit_latency_seconds", "Time a submission spends in the decide pipeline, a sync-ack wait included.").Latency(lat)
	}
	e.Counter("gridbwd_log_append_failures_total", "Decision-log or WAL appends that failed.").Set(st.Stats.LogAppendFailures)
	e.Gauge("gridbwd_durability_degraded", "1 once a log append has failed: the audit trail has a hole.").Set(st.Stats.DurabilityDegraded())
	e.Gauge("gridbwd_wal_poisoned", "1 once a disk fault poisoned the WAL: durable work is refused until restart.").Set(s.WALPoisoned())
	e.Gauge("gridbwd_replication_epoch", "Fencing epoch of this node's lineage.").Set(st.Epoch)
	e.Gauge("gridbwd_replication_is_follower", "1 on a read-only follower, 0 on a primary.").Set(st.Role == "follower")
	e.Gauge("gridbwd_replication_lag_bytes", "Committed bytes of the primary's WAL this follower has yet to apply.").Set(rs.LagBytes)
	e.Counter("gridbwd_replication_applied_records_total", "Shipped WAL records this follower applied.").Set(rs.Applied)
	e.Counter("gridbwd_reseeds_total", "Times this follower rebuilt itself from a checkpoint shipped on its replication stream after its cursor was compacted away.").Set(st.Stats.Reseeds)
	e.Counter("gridbwd_sync_degraded_total", "Sync-ack waits that hit their deadline and degraded to async durability.").Set(st.Stats.SyncDegraded)
	e.Counter("gridbwd_vote_rounds_total", "Promotion vote rounds this node ran as a candidate.").Set(st.Stats.VoteRounds)
	e.Counter("gridbwd_votes_granted_total", "Votes granted to this candidate.").Set(st.Stats.VotesGranted)
	e.Counter("gridbwd_votes_denied_total", "Votes denied to this candidate, unreachable peers included.").Set(st.Stats.VotesDenied)
	e.Counter("gridbwd_quorum_holds_total", "Vote rounds that fell short of a majority.").Set(st.Stats.QuorumHolds)
	if len(rs.Followers) > 0 {
		ids := make([]string, 0, len(rs.Followers))
		for id := range rs.Followers {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		e.Gauge("gridbwd_follower_lag_bytes", "Bytes of this primary's WAL a follower has yet to acknowledge.")
		for _, id := range ids {
			e.Set(rs.Followers[id].LagBytes, "follower", id)
		}
		e.Gauge("gridbwd_follower_ack_age_seconds", "Seconds since a follower last presented its cursor.")
		for _, id := range ids {
			e.Set(rs.Followers[id].AgeS, "follower", id)
		}
	}
	if ws := s.watchdogStateNow(); ws != "" {
		e.Gauge("gridbwd_watchdog_state", "1 on the rung of the failover ladder the in-process watchdog stands on.")
		for _, state := range []string{"follower", "suspect", "promoting", "primary"} {
			e.Set(state == ws, "state", state)
		}
	}
	if s.wal != nil {
		e.Gauge("gridbwd_wal_records", "Records in the WAL.").Set(rs.WALRecords)
		e.Gauge("gridbwd_wal_segment", "Segment of the WAL frontier.").Set(rs.WALEnd.Seg)
		e.Gauge("gridbwd_wal_offset_bytes", "Byte offset of the WAL frontier within its segment.").Set(rs.WALEnd.Off)
	}
}
