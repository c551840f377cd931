// Package trace serializes workloads and scheduling outcomes as
// versioned JSON, so experiments can be archived, diffed and replayed
// outside the process that generated them (cmd/gridsim's -save/-load
// flags, regression fixtures, cross-implementation comparison). The
// daemon's decision events are written as compact binary WAL records
// (record.go).
//
// The format is deliberately flat and explicit — base SI units, dense
// request IDs — so a trace is self-describing without this package.
package trace

import (
	"encoding/json"
	"fmt"
	"io"

	"gridbw/internal/request"
	"gridbw/internal/sched"
	"gridbw/internal/topology"
	"gridbw/internal/units"
)

// FormatVersion is bumped on incompatible schema changes.
const FormatVersion = 1

// requestJSON is the wire form of a request (base units: bytes, bytes/s,
// seconds).
type requestJSON struct {
	ID      int     `json:"id"`
	Ingress int     `json:"ingress"`
	Egress  int     `json:"egress"`
	Start   float64 `json:"start_s"`
	Finish  float64 `json:"finish_s"`
	Volume  float64 `json:"volume_bytes"`
	MaxRate float64 `json:"max_rate_bps"`
}

// workloadJSON is the persisted workload envelope.
type workloadJSON struct {
	Version  int           `json:"version"`
	Kind     string        `json:"kind"` // informational
	Ingress  []float64     `json:"ingress_capacity_bps"`
	Egress   []float64     `json:"egress_capacity_bps"`
	Requests []requestJSON `json:"requests"`
}

// SaveWorkload writes the network and request set as JSON.
func SaveWorkload(w io.Writer, net *topology.Network, reqs *request.Set, kind string) error {
	env := workloadJSON{Version: FormatVersion, Kind: kind}
	for i := 0; i < net.NumIngress(); i++ {
		env.Ingress = append(env.Ingress, float64(net.Bin(topology.PointID(i))))
	}
	for e := 0; e < net.NumEgress(); e++ {
		env.Egress = append(env.Egress, float64(net.Bout(topology.PointID(e))))
	}
	for _, r := range reqs.All() {
		env.Requests = append(env.Requests, requestJSON{
			ID:      int(r.ID),
			Ingress: int(r.Ingress),
			Egress:  int(r.Egress),
			Start:   float64(r.Start),
			Finish:  float64(r.Finish),
			Volume:  float64(r.Volume),
			MaxRate: float64(r.MaxRate),
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(env)
}

// LoadWorkload reads a workload envelope and rebuilds the network and
// request set, validating everything.
func LoadWorkload(r io.Reader) (*topology.Network, *request.Set, string, error) {
	var env workloadJSON
	dec := json.NewDecoder(r)
	if err := dec.Decode(&env); err != nil {
		return nil, nil, "", fmt.Errorf("trace: decode workload: %w", err)
	}
	if env.Version != FormatVersion {
		return nil, nil, "", fmt.Errorf("trace: unsupported format version %d (want %d)", env.Version, FormatVersion)
	}
	cfg := topology.Config{}
	for _, c := range env.Ingress {
		cfg.Ingress = append(cfg.Ingress, units.Bandwidth(c))
	}
	for _, c := range env.Egress {
		cfg.Egress = append(cfg.Egress, units.Bandwidth(c))
	}
	net, err := topology.New(cfg)
	if err != nil {
		return nil, nil, "", fmt.Errorf("trace: %w", err)
	}
	reqs := make([]request.Request, len(env.Requests))
	for i, rj := range env.Requests {
		reqs[i] = request.Request{
			ID:      request.ID(rj.ID),
			Ingress: topology.PointID(rj.Ingress),
			Egress:  topology.PointID(rj.Egress),
			Start:   units.Time(rj.Start),
			Finish:  units.Time(rj.Finish),
			Volume:  units.Volume(rj.Volume),
			MaxRate: units.Bandwidth(rj.MaxRate),
		}
		if int(reqs[i].Ingress) >= net.NumIngress() || int(reqs[i].Egress) >= net.NumEgress() ||
			reqs[i].Ingress < 0 || reqs[i].Egress < 0 {
			return nil, nil, "", fmt.Errorf("trace: request %d routed through unknown point", rj.ID)
		}
	}
	set, err := request.NewSet(reqs)
	if err != nil {
		return nil, nil, "", fmt.Errorf("trace: %w", err)
	}
	return net, set, env.Kind, nil
}

// decisionJSON is the wire form of one scheduling decision.
type decisionJSON struct {
	Request  int     `json:"request"`
	Accepted bool    `json:"accepted"`
	Rate     float64 `json:"rate_bps,omitempty"`
	Sigma    float64 `json:"sigma_s,omitempty"`
	Tau      float64 `json:"tau_s,omitempty"`
	Reason   string  `json:"reason,omitempty"`
}

// outcomeJSON is the persisted outcome envelope.
type outcomeJSON struct {
	Version   int            `json:"version"`
	Scheduler string         `json:"scheduler"`
	Decisions []decisionJSON `json:"decisions"`
}

// SaveOutcome writes an outcome's decisions as JSON.
func SaveOutcome(w io.Writer, out *sched.Outcome) error {
	env := outcomeJSON{Version: FormatVersion, Scheduler: out.Scheduler}
	for _, d := range out.Decisions() {
		dj := decisionJSON{Request: int(d.Request), Accepted: d.Accepted, Reason: d.Reason}
		if d.Accepted {
			dj.Rate = float64(d.Grant.Bandwidth)
			dj.Sigma = float64(d.Grant.Sigma)
			dj.Tau = float64(d.Grant.Tau)
		}
		env.Decisions = append(env.Decisions, dj)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(env)
}

// LoadOutcome reads a persisted outcome against its workload and rebuilds
// a verified sched.Outcome.
func LoadOutcome(r io.Reader, net *topology.Network, reqs *request.Set) (*sched.Outcome, error) {
	var env outcomeJSON
	if err := json.NewDecoder(r).Decode(&env); err != nil {
		return nil, fmt.Errorf("trace: decode outcome: %w", err)
	}
	if env.Version != FormatVersion {
		return nil, fmt.Errorf("trace: unsupported format version %d (want %d)", env.Version, FormatVersion)
	}
	out := sched.NewOutcome(env.Scheduler, net, reqs)
	for _, dj := range env.Decisions {
		if dj.Request < 0 || dj.Request >= reqs.Len() {
			return nil, fmt.Errorf("trace: decision for unknown request %d", dj.Request)
		}
		if dj.Accepted {
			out.Accept(request.Grant{
				Request:   request.ID(dj.Request),
				Bandwidth: units.Bandwidth(dj.Rate),
				Sigma:     units.Time(dj.Sigma),
				Tau:       units.Time(dj.Tau),
			})
		} else {
			out.Reject(request.ID(dj.Request), dj.Reason)
		}
	}
	if err := out.Verify(); err != nil {
		return nil, fmt.Errorf("trace: loaded outcome infeasible: %w", err)
	}
	return out, nil
}
