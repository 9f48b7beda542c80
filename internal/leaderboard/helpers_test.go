package leaderboard

// Accessors the tests read the baseline deployments through.

// Trending returns the current trending leaderboard.
func (s *SparkLeaderboard) Trending() []Standing { return append([]Standing(nil), s.tops...) }

// Totals returns the current per-contestant totals, sorted descending.
func (s *SparkLeaderboard) Totals() []Standing {
	return topK(s.totals.Collect(), s.cfg.Contestants)
}

// VotesRecorded returns the size of the recorded-votes state.
func (s *SparkLeaderboard) VotesRecorded() int { return s.votes.Count() }

// Trending returns the current trending leaderboard.
func (t *TridentLeaderboard) Trending() []Standing { return append([]Standing(nil), t.tops...) }

// Total returns a contestant's vote total.
func (t *TridentLeaderboard) Total(contestant int64) int64 {
	if v, ok := t.state.Get(totalKey(contestant)); ok {
		return v[0].Int()
	}
	return 0
}
