package cluster

import "testing"

// TestMachineTransitions walks the failover ladder edge by edge: each
// case is a full observation sequence and the state it must land in.
func TestMachineTransitions(t *testing.T) {
	cases := []struct {
		name   string
		k      int
		inputs []Input
		want   State
	}{
		{"fresh", 3, nil, StateFollower},
		{"healthy primary", 3, []Input{ProbeOK, ProbeOK, ProbeOK}, StateFollower},
		{"misses below K", 3, []Input{ProbeMiss, ProbeMiss}, StateFollower},
		{"K misses suspect", 3, []Input{ProbeMiss, ProbeMiss, ProbeMiss}, StateSuspect},
		{"k clamped to one", 0, []Input{ProbeMiss}, StateSuspect},
		{"ok resets the count", 3, []Input{ProbeMiss, ProbeMiss, ProbeOK, ProbeMiss, ProbeMiss}, StateFollower},
		{"primary back while suspect", 3, []Input{ProbeMiss, ProbeMiss, ProbeMiss, ProbeOK}, StateFollower},
		{"lag holds promotion", 3, []Input{ProbeMiss, ProbeMiss, ProbeMiss, LagTooFar, LagTooFar}, StateSuspect},
		// The election is the standby's, inside the promote call: lag OK goes
		// straight to promoting, and a denied quorum is a promote failure.
		{"lag ok starts election", 3, []Input{ProbeMiss, ProbeMiss, ProbeMiss, LagOK}, StatePromoting},
		{"probe verdict ignored mid-promote", 3, []Input{ProbeMiss, ProbeMiss, ProbeMiss, LagOK, ProbeOK}, StatePromoting},
		{"promotion completes", 3, []Input{ProbeMiss, ProbeMiss, ProbeMiss, LagOK, PromoteOK}, StatePrimary},
		{"promote failure re-suspects", 3, []Input{ProbeMiss, ProbeMiss, ProbeMiss, LagOK, PromoteFail}, StateSuspect},
		{"retry after promote failure", 3, []Input{ProbeMiss, ProbeMiss, ProbeMiss, LagOK, PromoteFail, LagOK, PromoteOK}, StatePrimary},
		{"operator beat us from follower", 3, []Input{StandbyIsPrimary}, StatePrimary},
		{"operator beat us from suspect", 2, []Input{ProbeMiss, ProbeMiss, StandbyIsPrimary}, StatePrimary},
		{"operator beat us mid-promote", 2, []Input{ProbeMiss, ProbeMiss, LagOK, StandbyIsPrimary}, StatePrimary},
		{"primary is terminal", 1, []Input{ProbeMiss, LagOK, PromoteOK, ProbeOK, ProbeMiss, LagTooFar, PromoteFail}, StatePrimary},
		{"stale lag verdict ignored while follower", 3, []Input{LagOK, PromoteOK}, StateFollower},
		{"stale promote verdict ignored while suspect", 2, []Input{ProbeMiss, ProbeMiss, PromoteOK}, StateSuspect},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := NewMachine(tc.k)
			for _, in := range tc.inputs {
				m.Step(in)
			}
			if got := m.State(); got != tc.want {
				t.Fatalf("after %v: state = %v, want %v", tc.inputs, got, tc.want)
			}
		})
	}
}

// TestMachineMissCountResets pins the consecutive-miss bookkeeping: a
// single successful probe erases all accumulated suspicion.
func TestMachineMissCountResets(t *testing.T) {
	m := NewMachine(3)
	m.Step(ProbeMiss)
	m.Step(ProbeMiss)
	if m.Misses() != 2 {
		t.Fatalf("misses = %d, want 2", m.Misses())
	}
	m.Step(ProbeOK)
	if m.Misses() != 0 {
		t.Fatalf("misses after ok = %d, want 0", m.Misses())
	}
	if m.Transitions() != 0 {
		t.Fatalf("transitions = %d, want 0 (never left follower)", m.Transitions())
	}
}

// TestMachineTransitionCount pins that only taken edges count — self-loops
// (held lag checks, repeated misses past K) do not inflate the counter.
func TestMachineTransitionCount(t *testing.T) {
	m := NewMachine(2)
	for _, in := range []Input{ProbeMiss, ProbeMiss, ProbeMiss, LagTooFar, LagOK, PromoteOK} {
		m.Step(in)
	}
	// follower→suspect, suspect→promoting, promoting→primary.
	if m.Transitions() != 3 {
		t.Fatalf("transitions = %d, want 3", m.Transitions())
	}
}

func TestStateAndInputStrings(t *testing.T) {
	if StateSuspect.String() != "suspect" || StatePromoting.String() != "promoting" {
		t.Fatal("state names drifted")
	}
	if ProbeMiss.String() != "probe-miss" || StandbyIsPrimary.String() != "standby-is-primary" {
		t.Fatal("input names drifted")
	}
	if State(42).String() != "State(42)" || Input(42).String() != "Input(42)" {
		t.Fatal("out-of-range formatting drifted")
	}
}
