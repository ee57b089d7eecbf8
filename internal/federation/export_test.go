package federation

// SeenCount returns how many prepare sub-IDs the agent still keeps for
// deduplicating duplicated prepares.
func (a *Agent) SeenCount() int { return len(a.seen) }
