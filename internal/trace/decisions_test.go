package trace

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

func TestDecisionLogRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	l := NewDecisionLog(&buf)
	events := []Event{
		{At: 0, Kind: EventAccept, Request: 0, Ingress: 0, Egress: 1, RateBps: 6e8, SigmaS: 0, TauS: 100},
		{At: 1.5, Kind: EventReject, Request: 1, Ingress: 0, Egress: 1, Reason: "capacity"},
		{At: 3, Kind: EventCancel, Request: 0, Ingress: 0, Egress: 1},
	}
	for _, ev := range events {
		if err := l.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	back, err := ReadDecisions(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(events) {
		t.Fatalf("read %d events, want %d", len(back), len(events))
	}
	for i := range events {
		if back[i] != events[i] {
			t.Errorf("event %d = %+v, want %+v", i, back[i], events[i])
		}
	}
}

func TestDecisionLogSkipsBlankLinesAndRejectsGarbage(t *testing.T) {
	in := "{\"t_s\":1,\"kind\":\"accept\",\"request\":0,\"ingress\":0,\"egress\":0}\n\n"
	events, err := ReadDecisions(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Kind != EventAccept {
		t.Errorf("events = %+v", events)
	}
	if _, err := ReadDecisions(strings.NewReader("not json\n")); err == nil {
		t.Error("garbage line did not error")
	}
	// A torn final line — a writer killed mid-append — is refused too: the
	// audit log is an export, not a recovery source that salvages prefixes.
	if _, err := ReadDecisions(strings.NewReader(in + `{"t_s":3,"kind":"acc`)); err == nil {
		t.Error("torn tail did not error")
	}
}

func TestDecisionLogConcurrentAppend(t *testing.T) {
	var buf bytes.Buffer
	l := NewDecisionLog(&buf)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := l.Append(Event{Kind: EventAccept, Request: g*50 + i}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	events, err := ReadDecisions(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 400 {
		t.Errorf("read %d events, want 400", len(events))
	}
}
