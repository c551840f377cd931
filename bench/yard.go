package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The yardstick is a small HTTP service of the benchmark's own — standard
// library only, no gridbw code — shaped like the workload's most frequent
// request: a JSON submit over one of two keep-alive connections, per-item
// work of about the daemon's size, and as many sequential loopback hops
// behind the handler as the workload's topology makes. The clients that
// drive the daemon drive it too: every yardEvery-th operation of the
// closed and of the open loop goes to the yardstick.
//
// What it is for: the sandbox's speed drifts by 20 to 35% within a minute
// (neighbours on the shared host) and every timing of the daemon drifts
// with it. The yardstick's operations run in the same milliseconds on the
// same cores, and its code never changes, so the quotient daemon ÷
// yardstick is a property of the daemon's code and not of the minute it
// was measured in. A calibrated timing is the raw one divided by the
// yardstick's slowdown — its reading over its pinned nominal reading —
// which makes it a time on the reference box at its nominal speed. Over
// ten seeds that cuts the quartile spread of single_json's submit median
// from 11% to 1%. The raw timings and the yardstick's are printed as well.

// yardSpec shapes the yardstick like one workload.
type yardSpec struct {
	// work is how many dependent binary searches over the yardstick's
	// table one request costs — about what the daemon's core spends.
	work int
	// hops is how many sequential loopback round trips the handler makes
	// before it answers.
	hops int
	// The yardstick's nominal readings on the reference box: the mean
	// duration of its operations with one client and nothing else running
	// (beside set-up), among the closed loop's, and their median from the
	// due instant in the open loop.
	soloUs, closedUs, openUs float64
}

// Every yardEvery-th operation of a measured loop is a yardstick op.
const yardEvery = 4

type yardReq struct {
	From           int     `json:"from"`
	To             int     `json:"to"`
	VolumeBytes    float64 `json:"volume_bytes"`
	MaxRateBps     float64 `json:"max_rate_bps"`
	NotBeforeS     float64 `json:"not_before_s"`
	DeadlineS      float64 `json:"deadline_s"`
	IdempotencyKey string  `json:"idempotency_key"`
}

type yardResp struct {
	ID       int     `json:"id"`
	Accepted bool    `json:"accepted"`
	State    string  `json:"state"`
	RateBps  float64 `json:"rate_bps"`
	SigmaS   float64 `json:"sigma_s"`
	TauS     float64 `json:"tau_s"`
}

const yardTable = 1 << 18 // float64s: 2 MB, more than a core's private caches

type yardstick struct {
	w     *workloadSpec
	table []float64
	mu    sync.Mutex
	ids   atomic.Int64

	front, back *node
	hc          *http.Client // clients → front, two connections
	inner       *http.Client // front → back
}

func newYardstick(w *workloadSpec) (*yardstick, error) {
	y := &yardstick{w: w, table: make([]float64, yardTable)}
	r := rng{s: 7}
	for i := range y.table {
		y.table[i] = r.float64()
	}
	sort.Float64s(y.table)
	back := http.NewServeMux()
	back.HandleFunc("/hop", func(rw http.ResponseWriter, req *http.Request) {
		io.Copy(io.Discard, req.Body)
		rw.Header().Set("Content-Type", "application/json")
		rw.Write([]byte(`{"ok":true}`))
	})
	front := http.NewServeMux()
	front.HandleFunc("/one", y.handleOne)
	var err error
	if y.back, err = serve("yard-back", back, nil); err != nil {
		return nil, err
	}
	if y.front, err = serve("yard-front", front, nil); err != nil {
		y.close()
		return nil, err
	}
	y.hc = &http.Client{Timeout: 30 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 2, MaxConnsPerHost: 2, IdleConnTimeout: 90 * time.Second}}
	y.inner = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16, IdleConnTimeout: 90 * time.Second}}
	return y, nil
}

func (y *yardstick) close() {
	if y.hc != nil {
		y.hc.CloseIdleConnections()
		y.inner.CloseIdleConnections()
	}
	for _, n := range []*node{y.front, y.back} {
		if n != nil {
			n.hs.Close()
			<-n.done
		}
	}
}

// item is the per-item work: a run of dependent binary searches over a
// table that does not fit a core's private caches, under one mutex.
func (y *yardstick) item(q yardReq) yardResp {
	y.mu.Lock()
	x := math.Mod(q.VolumeBytes*1e-3+q.MaxRateBps*1e-7, 1)
	for k := 0; k < y.w.yard.work; k++ {
		i := sort.SearchFloat64s(y.table, x)
		x = math.Mod(x*7.31+y.table[i&(yardTable-1)]+0.137, 1)
	}
	y.mu.Unlock()
	return yardResp{ID: int(y.ids.Add(1)), Accepted: x < 0.64, State: "active",
		RateBps: q.MaxRateBps * (0.5 + x/2), SigmaS: q.NotBeforeS, TauS: q.DeadlineS - x}
}

func (y *yardstick) hop() error {
	for k := 0; k < y.w.yard.hops; k++ {
		resp, err := y.inner.Post(y.back.url+"/hop", "application/json", bytes.NewReader([]byte(`{"reserve":true,"ttl_s":60}`)))
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	return nil
}

func (y *yardstick) handleOne(rw http.ResponseWriter, req *http.Request) {
	var q yardReq
	if err := json.NewDecoder(req.Body).Decode(&q); err != nil {
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}
	if err := y.hop(); err != nil {
		http.Error(rw, err.Error(), http.StatusBadGateway)
		return
	}
	rw.Header().Set("Content-Type", "application/json")
	json.NewEncoder(rw).Encode(y.item(q))
}

// exec sends yardstick operation j — a submit the workload's generator
// draws — and checks the answer's shape.
func (y *yardstick) exec(seed int64, j int, vols []float64) error {
	r := opStream(seed, phaseYard, j)
	d := y.w.drawRequest(&r, vols)
	body, _ := json.Marshal(yardReq{From: d.from, To: d.to, VolumeBytes: d.volume, MaxRateBps: d.maxRate,
		NotBeforeS: 1e4 + d.startIn, DeadlineS: 1e4 + d.startIn + d.window, IdempotencyKey: idemKey(seed, phaseYard, j, 0)})
	resp, err := y.hc.Post(y.front.url+"/one", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	var ans yardResp
	if resp.StatusCode != http.StatusOK || json.Unmarshal(b, &ans) != nil || ans.ID == 0 {
		return fmt.Errorf("yardstick: status %d, answer %q", resp.StatusCode, b)
	}
	return nil
}

// solo sends operations one after the other for dur and returns their
// mean duration in µs: the yardstick's reading beside a set-up.
func (y *yardstick) solo(seed int64, vols []float64, dur time.Duration) (float64, error) {
	t0 := time.Now()
	n := 0
	for time.Since(t0) < dur {
		if err := y.exec(seed, -1-n, vols); err != nil {
			return 0, err
		}
		n++
	}
	return float64(time.Since(t0).Microseconds()) / float64(n), nil
}

// allocsPerOp is how many mallocs one yardstick operation costs the
// process, client and service together: allocs_per_admit leaves them out.
func (y *yardstick) allocsPerOp(seed int64, vols []float64) (float64, error) {
	const warm, n = 50, 200 // the first ones open connections and grow buffers
	var m0 uint64
	for j := 0; j < warm+n; j++ {
		if j == warm {
			m0 = mallocs()
		}
		if err := y.exec(seed, -1-j, vols); err != nil {
			return 0, err
		}
	}
	return float64(mallocs()-m0) / n, nil
}
