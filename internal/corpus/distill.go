package corpus

import "fmt"

// Distill shrinks the store to a minimal covering set: a greedy set cover
// over the union of the entries' attributed edges (the classic corpus
// minimization, metadata-only — no board replays needed because every
// admission carries its fresh-edge attribution). Kept entries preserve
// admission order; the manifest is rewritten with only them atomically
// (temp + fsync + rename + directory fsync), so a crash mid-distill leaves
// either the old manifest or the new one. Returns how many entries were kept
// and dropped.
//
// The selection is deterministic: the entry covering the most still-uncovered
// edges wins each round, ties broken by admission order. Entries whose every
// attributed edge is covered by stronger seeds are dropped — checkpoint
// coverage is unaffected, since the cumulative bitmap lives in the
// checkpoint, not the manifest. Entries with no attribution recorded at all
// are kept: without edges there is no proof of redundancy.
func (s *Store) Distill() (kept, dropped int, err error) {
	n := len(s.order)
	if n == 0 {
		return 0, 0, nil
	}
	covered := make(map[uint32]bool)
	keep := make(map[string]bool, n)
	for _, h := range s.order {
		if len(s.entries[h].Edges) == 0 {
			keep[h] = true
		}
	}
	remaining := append([]string(nil), s.order...)
	for {
		bestIdx, bestGain := -1, 0
		for i, h := range remaining {
			if h == "" {
				continue
			}
			gain := 0
			for _, e := range s.entries[h].Edges {
				if !covered[e] {
					gain++
				}
			}
			if gain > bestGain {
				bestIdx, bestGain = i, gain
			}
		}
		if bestIdx < 0 {
			break
		}
		h := remaining[bestIdx]
		remaining[bestIdx] = ""
		keep[h] = true
		for _, e := range s.entries[h].Edges {
			covered[e] = true
		}
	}
	if len(keep) == n {
		return n, 0, nil
	}
	if err := s.rewriteManifest(keep); err != nil {
		return 0, 0, err
	}
	newOrder := make([]string, 0, len(keep))
	for _, h := range s.order {
		if keep[h] {
			newOrder = append(newOrder, h)
		} else {
			delete(s.entries, h)
		}
	}
	s.order = newOrder
	return len(s.order), n - len(s.order), nil
}

// rewriteManifest atomically replaces the manifest with the kept entries in
// admission order.
func (s *Store) rewriteManifest(keep map[string]bool) error {
	var buf []byte
	for _, h := range s.order {
		if keep[h] {
			buf = AppendManifestLine(buf, s.entries[h])
		}
	}
	if err := WriteFileAtomic(s.manifestPath(), buf); err != nil {
		return fmt.Errorf("corpus: distill manifest rewrite: %w", err)
	}
	return nil
}
