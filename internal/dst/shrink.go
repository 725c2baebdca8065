package dst

// Shrink greedily reduces a failing plan to a smaller one that still
// fails, so committed regression transcripts are minimal and the failure
// is legible. fails must report whether a plan reproduces the failure
// (typically: Execute(p) has a non-empty Failures list); budget caps the
// number of candidate executions (<=0 means 64).
//
// The reduction passes run in a fixed order — halve the workload, strip
// fault dimensions, collapse engine parallelism, simplify pacing and
// delays — and restart from the top after every accepted candidate, so
// the result is a local minimum: no single remaining reduction passes.
func Shrink(p Plan, fails func(Plan) bool, budget int) Plan {
	if budget <= 0 {
		budget = 64
	}
	for {
		next, ok := shrinkStep(p, fails, &budget)
		if !ok {
			return p
		}
		p = next
	}
}

// shrinkStep tries every candidate reduction of p in order and returns
// the first that still fails.
func shrinkStep(p Plan, fails func(Plan) bool, budget *int) (Plan, bool) {
	for _, cand := range candidates(p) {
		if *budget <= 0 {
			return p, false
		}
		*budget--
		if fails(cand) {
			return cand, true
		}
	}
	return p, false
}

// candidates enumerates one-step reductions of p, most aggressive first.
func candidates(p Plan) []Plan {
	var out []Plan
	try := func(mut func(*Plan)) {
		c := p
		mut(&c)
		out = append(out, c)
	}

	// The wire dimension goes first: if the failure reproduces without
	// the netstream round trip, the transport was never the cause and
	// every later reduction runs without it.
	if p.Net {
		try(func(c *Plan) { c.Net = false })
	}
	if p.N > 400 {
		try(func(c *Plan) { c.N /= 2 })
		try(func(c *Plan) { c.N = c.N * 3 / 4 })
	}
	if p.Chaos.ErrRate > 0 {
		try(func(c *Plan) { c.Chaos.ErrRate = 0 })
	}
	if p.Chaos.StallRate > 0 {
		try(func(c *Plan) { c.Chaos.StallRate, c.Chaos.StallMS = 0, 0 })
	}
	if p.Chaos.DupRate > 0 {
		try(func(c *Plan) { c.Chaos.DupRate = 0 })
	}
	if p.Chaos.SpikeRate > 0 {
		try(func(c *Plan) { c.Chaos.SpikeRate, c.Chaos.SpikeLen = 0, 0 })
	}
	if p.Chaos.CutAfter > 0 {
		try(func(c *Plan) { c.Chaos.CutAfter = 0 })
	}
	if p.Heartbeat > 0 {
		try(func(c *Plan) { c.Heartbeat = 0 })
	}
	if p.Poisson {
		try(func(c *Plan) { c.Poisson = false })
	}
	if p.Fanout > 1 {
		try(func(c *Plan) { c.Fanout = 0 })
		if p.Fanout > 2 {
			try(func(c *Plan) { c.Fanout = 2 })
		}
	}
	if p.NumKeys > 1 {
		try(func(c *Plan) { c.NumKeys = 0 })
	}
	if p.Batch > 1 {
		try(func(c *Plan) { c.Batch = 1 })
	}
	if p.Refine > 0 {
		try(func(c *Plan) { c.Refine = 0 })
	}
	if p.Values != "constant" {
		try(func(c *Plan) { c.Values = "constant" })
	}
	if p.Delay.Kind != "zero" && p.Delay.Kind != "exp" {
		try(func(c *Plan) { c.Delay.Kind = "exp" })
	}
	if p.Delay.Mean > 100 {
		try(func(c *Plan) { c.Delay.Mean = 100 })
	}
	return out
}
