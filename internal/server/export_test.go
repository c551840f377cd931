package server

import "gridbw/internal/hold"

// HoldRows copies the hold table for the external tests: every hold in key
// order, then the resolved ones in the order retention evicts them.
func (s *Server) HoldRows() (all, retired []hold.Entry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.holds.All() {
		all = append(all, *e)
	}
	for _, e := range s.holds.Retired() {
		retired = append(retired, *e)
	}
	return all, retired
}
