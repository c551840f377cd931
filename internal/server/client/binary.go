package client

// Binary batch support: SubmitBatchBinary speaks the length-prefixed
// codec of POST /v1/batch (see server/wire.go) through the same retry,
// failover and idempotency machinery as the JSON methods. The request is
// framed once and the identical bytes re-sent per attempt.

import (
	"context"
	"fmt"
	"io"
	"net/http"

	"gridbw/internal/server"
)

// wireFromSubmitRequest resolves the dual numeric/string quantity fields
// of the JSON request shape into a binary record (server.SubmitRequest.Wire
// with this package's error prefix). Relative times stay relative on the
// wire — the server resolves them against its own clock, exactly like
// start_in / deadline_in.
func wireFromSubmitRequest(req server.SubmitRequest) (server.WireSubmission, error) {
	ws, err := req.Wire()
	if err != nil {
		return ws, fmt.Errorf("gridbwd: %w", err)
	}
	return ws, nil
}

// SubmitBatchBinary is SubmitBatch over the binary codec: many requests
// decided in one pass, one result per input in input order, with the
// same generated-idempotency-key retry safety. Results come back in the
// JSON item shape so callers classify them identically under either
// codec; the human-readable Rate string is empty (RateBps is set).
func (c *Client) SubmitBatchBinary(ctx context.Context, reqs []server.SubmitRequest) ([]server.BatchItemJSON, error) {
	subs := make([]server.WireSubmission, len(reqs))
	for i, req := range reqs {
		ws, err := wireFromSubmitRequest(req)
		if err != nil {
			return nil, fmt.Errorf("request %d: %w", i, err)
		}
		subs[i] = ws
	}
	return c.SubmitBatchWire(ctx, subs)
}

// SubmitBatchWire is SubmitBatchBinary for callers that already hold
// decoded wire records — the router re-shards incoming binary batches
// without a detour through the JSON request shape. Records missing an
// idempotency key get a generated one (subs is modified in place, so
// retries at any layer re-send the same keys).
func (c *Client) SubmitBatchWire(ctx context.Context, subs []server.WireSubmission) ([]server.BatchItemJSON, error) {
	for i := range subs {
		if subs[i].IdempotencyKey == "" {
			subs[i].IdempotencyKey = NewIdempotencyKey()
		}
	}
	blob := server.AppendBinaryBatchRequest(nil, subs)
	var out []server.BatchItemJSON
	err := c.call(ctx, http.MethodPost, "/v1/batch", server.BinaryBatchContentType, blob, func(r io.Reader) error {
		body, derr := io.ReadAll(r)
		if derr != nil {
			return derr
		}
		out, derr = server.DecodeBinaryBatchResponse(body)
		return derr
	})
	if err != nil {
		return nil, err
	}
	if len(out) != len(subs) {
		return nil, fmt.Errorf("gridbwd: batch answered %d results for %d requests", len(out), len(subs))
	}
	return out, nil
}
