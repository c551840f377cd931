package server

import "gridbw/internal/wire"

// Names of the request plane's shapes and codecs from before they moved to
// internal/wire. They live only for bench/, its own module, which still
// spells them this way; nothing else may use them.
type (
	SubmitRequest   = wire.SubmitRequest
	ReservationJSON = wire.ReservationJSON
	BatchItemJSON   = wire.BatchItemJSON
	BatchRequest    = wire.BatchRequest
	BatchResponse   = wire.BatchResponse
	WireSubmission  = wire.Submission
)

const (
	RoutedCrossShard     = wire.RoutedCrossShard
	DurabilityReplicated = wire.DurabilityReplicated
)

var (
	AppendBinaryBatchRequest  = wire.AppendBatchRequest
	DecodeBinaryBatchRequest  = wire.DecodeBatchRequest
	DecodeBinaryBatchResponse = wire.DecodeBatchResponse
)
