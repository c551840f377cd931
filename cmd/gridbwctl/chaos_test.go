package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gridbw/internal/chaosnet"
)

func TestLinkFlagParsing(t *testing.T) {
	var l linkFlags
	if err := l.Set("a->b=>127.0.0.1:0=>127.0.0.1:8080"); err != nil {
		t.Fatalf("Set: %v", err)
	}
	if len(l) != 1 || l[0].name != "a->b" || l[0].listen != "127.0.0.1:0" || l[0].target != "127.0.0.1:8080" {
		t.Fatalf("parsed: %+v", l)
	}
	for _, bad := range []string{"", "x", "a=>b", "a=>=>c", "a=>b=>c=>d"} {
		if err := l.Set(bad); err == nil {
			t.Fatalf("accepted %q", bad)
		}
	}
}

func TestAdminAPI(t *testing.T) {
	// A real echo target so the link is functional, though the admin API
	// itself never forwards traffic.
	set := chaosnet.NewSet()
	defer set.Close()
	if _, err := set.Add("a->b", "127.0.0.1:0", "127.0.0.1:1", 1); err != nil {
		t.Fatalf("Add: %v", err)
	}
	ts := httptest.NewServer(adminHandler(set))
	defer ts.Close()

	// List.
	resp, err := http.Get(ts.URL + "/v1/links")
	if err != nil {
		t.Fatalf("GET links: %v", err)
	}
	var list []linkView
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatalf("decode: %v", err)
	}
	resp.Body.Close()
	if len(list) != 1 || list[0].Name != "a->b" {
		t.Fatalf("list: %+v", list)
	}

	// Set rules.
	rules := chaosnet.Rules{CutToTarget: true, Latency: 5 * time.Millisecond}
	body, _ := json.Marshal(rules)
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/links/a->b/rules", bytes.NewReader(body))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("PUT rules: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT rules status %d", resp.StatusCode)
	}
	p, _ := set.Get("a->b")
	if got := p.Rules(); !got.CutToTarget || got.Latency != 5*time.Millisecond {
		t.Fatalf("rules not applied: %+v", got)
	}

	// Single-link view reflects the rules.
	resp, err = http.Get(ts.URL + "/v1/links/a->b")
	if err != nil {
		t.Fatalf("GET link: %v", err)
	}
	var lv linkView
	if err := json.NewDecoder(resp.Body).Decode(&lv); err != nil {
		t.Fatalf("decode link: %v", err)
	}
	resp.Body.Close()
	if !lv.Rules.CutToTarget {
		t.Fatalf("view rules: %+v", lv.Rules)
	}

	// Break is accepted.
	resp, err = http.Post(ts.URL+"/v1/links/a->b/break", "", nil)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("POST break: %v (%v)", err, resp)
	}
	resp.Body.Close()

	// Heal clears every link.
	resp, err = http.Post(ts.URL+"/v1/heal", "", nil)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("POST heal: %v (%v)", err, resp)
	}
	resp.Body.Close()
	if got := p.Rules(); got != (chaosnet.Rules{}) {
		t.Fatalf("heal left rules: %+v", got)
	}

	// Unknown link is 404.
	resp, err = http.Get(ts.URL + "/v1/links/nope")
	if err != nil {
		t.Fatalf("GET unknown: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown link status %d", resp.StatusCode)
	}
}

func TestRunRejectsNoLinks(t *testing.T) {
	ctx := context.Background()
	if err := run(ctx, []string{"chaos"}, &bytes.Buffer{}); err == nil {
		t.Fatal("run with no links should fail")
	}
	if err := run(ctx, []string{"chaos", "-link", "bad"}, &bytes.Buffer{}); err == nil {
		t.Fatal("run with malformed link should fail")
	}
}

// TestChaosStopsWithTheContext: chaos serves until gridbwctl's signal
// context ends, then closes its links and admin API and returns cleanly.
func TestChaosStopsWithTheContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out bytes.Buffer
	err := run(ctx, []string{"chaos", "-admin", "127.0.0.1:0", "-link", "a->b=>127.0.0.1:0=>127.0.0.1:1"}, &out)
	if err != nil {
		t.Fatalf("chaos on a cancelled context: %v", err)
	}
	for _, want := range []string{`link "a->b" 127.0.0.1:`, "admin API on http://127.0.0.1:", "shutting down"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}
