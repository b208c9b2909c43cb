package probe

// Merging exists for sharded execution: each partition's kernel records
// into its own sink (sinks, like kernels, are single-threaded), and the
// partitions' recordings are folded into the hub's sink after the run.
// Instances are matched by (component, name) — the same identity rule
// Register uses — so a sharded run whose components were constructed in
// the single-kernel order reproduces the single-kernel instance
// numbering exactly, which is what keeps exported traces and reports
// byte-identical across -procmode event|parallel.

// RingCap returns the span-ring capacity the sink was created with, so
// auxiliary sinks (per-partition recorders) can be sized to match.
func (s *Sink) RingCap() int { return s.ringCap }

// Merge folds every recording from sub into s: instances are matched or
// appended by (component, name), named kinds are matched or minted,
// aggregate cells are summed (histograms bucket-wise, maxima by max),
// declared capacities are adopted where s has none, and sub's spans are
// re-labelled and appended to s's ring (oldest first, subject to s's
// normal overflow accounting). sub is left untouched. A nil sub is a
// no-op.
func (s *Sink) Merge(sub *Sink) {
	if s == nil || sub == nil {
		return
	}
	kindMap := make([]Kind, len(sub.kinds))
	for i, name := range sub.kinds {
		kindMap[i] = s.KindNamed(name)
	}
	instMap := make([]int32, len(sub.comps))
	for i := range sub.comps {
		r := s.Register(sub.comps[i], sub.names[i])
		instMap[i] = r.id
		if s.caps[r.id] == 0 {
			s.caps[r.id] = sub.caps[i]
		}
	}
	for i, row := range sub.agg {
		di := instMap[i]
		for k := range row {
			c := &row[k]
			if c.Dur == 0 && c.Count == 0 && c.Sum == 0 && c.Max == 0 && c.Hist == nil {
				continue
			}
			dc := s.bump(di, kindMap[k])
			dc.Dur += c.Dur
			dc.Count += c.Count
			dc.Sum += c.Sum
			if c.Max > dc.Max {
				dc.Max = c.Max
			}
			if c.Hist != nil {
				if dc.Hist == nil {
					dc.Hist = new([histBuckets]int64)
				}
				for b := range c.Hist {
					dc.Hist[b] += c.Hist[b]
				}
			}
		}
	}
	sub.EachSpan(func(sp Span) {
		sp.Inst = instMap[sp.Inst]
		sp.Kind = kindMap[sp.Kind]
		s.push(sp)
	})
	s.dropped += sub.dropped
}
