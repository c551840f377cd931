package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"

	"gridbw/internal/chaosnet"
)

// linkSpec is one parsed -link flag: name=>listen=>target.
type linkSpec struct{ name, listen, target string }

type linkFlags []linkSpec

func (l *linkFlags) String() string { return fmt.Sprintf("%d links", len(*l)) }

func (l *linkFlags) Set(v string) error {
	parts := strings.Split(v, "=>")
	if len(parts) != 3 {
		return fmt.Errorf("want name=>listen=>target, got %q", v)
	}
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
		if parts[i] == "" {
			return fmt.Errorf("empty field in link %q", v)
		}
	}
	*l = append(*l, linkSpec{parts[0], parts[1], parts[2]})
	return nil
}

// runChaos runs a set of TCP chaos links in front of a gridbwd group and
// serves an HTTP admin API to flip fault rules while traffic is flowing,
// until ctx ends. Each -link is one directed proxy; partial and bridge
// partitions are built by routing each (src, dst) pair of the group
// through its own link and cutting a subset.
//
// Admin API (JSON):
//
//	GET  /v1/links                 list links with rules and stats
//	GET  /v1/links/{name}          one link
//	PUT  /v1/links/{name}/rules    set rules (chaosnet.Rules JSON body)
//	POST /v1/links/{name}/break    RST established connections
//	POST /v1/heal                  clear rules on every link
//
// Durations in rule bodies are JSON numbers in nanoseconds (Go
// time.Duration), e.g. {"latency": 50000000} for 50ms.
func runChaos(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("gridbwctl chaos", flag.ContinueOnError)
	var links linkFlags
	fs.Var(&links, "link", "chaos link as name=>listen=>target (repeatable)")
	admin := fs.String("admin", "127.0.0.1:7800", "admin API listen address")
	seed := fs.Int64("seed", 1, "seed for probabilistic fault decisions")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if len(links) == 0 {
		return fmt.Errorf("at least one -link is required")
	}

	set := chaosnet.NewSet()
	defer set.Close()
	for _, l := range links {
		p, err := set.Add(l.name, l.listen, l.target, *seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "gridbwctl chaos: link %q %s => %s\n", l.name, p.Addr(), l.target)
	}

	ln, err := net.Listen("tcp", *admin)
	if err != nil {
		return fmt.Errorf("admin listen: %w", err)
	}
	srv := &http.Server{Handler: adminHandler(set)}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	fmt.Fprintf(out, "gridbwctl chaos: admin API on http://%s\n", ln.Addr())

	select {
	case <-ctx.Done():
		fmt.Fprintln(out, "gridbwctl chaos: shutting down")
		srv.Close()
		return nil
	case err := <-errc:
		return err
	}
}

// linkView is one link's externally visible state.
type linkView struct {
	Name   string         `json:"name"`
	Listen string         `json:"listen"`
	Target string         `json:"target"`
	Rules  chaosnet.Rules `json:"rules"`
	Stats  chaosnet.Stats `json:"stats"`
}

func view(p *chaosnet.Proxy) linkView {
	return linkView{
		Name:   p.Name(),
		Listen: p.Addr(),
		Target: p.Target(),
		Rules:  p.Rules(),
		Stats:  p.Stats(),
	}
}

// adminHandler serves the chaos control API over a Set.
func adminHandler(set *chaosnet.Set) http.Handler {
	mux := http.NewServeMux()

	writeJSON := func(w http.ResponseWriter, code int, v any) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		json.NewEncoder(w).Encode(v)
	}
	fail := func(w http.ResponseWriter, code int, err error) {
		writeJSON(w, code, map[string]string{"error": err.Error()})
	}

	mux.HandleFunc("/v1/links", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			fail(w, http.StatusMethodNotAllowed, fmt.Errorf("GET only"))
			return
		}
		out := []linkView{}
		for _, name := range set.Names() {
			if p, err := set.Get(name); err == nil {
				out = append(out, view(p))
			}
		}
		writeJSON(w, http.StatusOK, out)
	})

	mux.HandleFunc("/v1/links/", func(w http.ResponseWriter, r *http.Request) {
		rest := strings.TrimPrefix(r.URL.Path, "/v1/links/")
		name, action := rest, ""
		if i := strings.LastIndexByte(rest, '/'); i >= 0 {
			name, action = rest[:i], rest[i+1:]
		}
		p, err := set.Get(name)
		if err != nil {
			fail(w, http.StatusNotFound, err)
			return
		}
		switch {
		case action == "" && r.Method == http.MethodGet:
			writeJSON(w, http.StatusOK, view(p))
		case action == "rules" && r.Method == http.MethodPut:
			var rules chaosnet.Rules
			if err := json.NewDecoder(r.Body).Decode(&rules); err != nil {
				fail(w, http.StatusBadRequest, fmt.Errorf("bad rules body: %w", err))
				return
			}
			p.SetRules(rules)
			writeJSON(w, http.StatusOK, view(p))
		case action == "break" && r.Method == http.MethodPost:
			p.BreakExisting()
			writeJSON(w, http.StatusOK, view(p))
		default:
			fail(w, http.StatusMethodNotAllowed, fmt.Errorf("unsupported %s %s", r.Method, r.URL.Path))
		}
	})

	mux.HandleFunc("/v1/heal", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			fail(w, http.StatusMethodNotAllowed, fmt.Errorf("POST only"))
			return
		}
		for _, name := range set.Names() {
			if p, err := set.Get(name); err == nil {
				p.SetRules(chaosnet.Rules{})
			}
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "healed"})
	})

	return mux
}
