package storage

import (
	"slices"
	"sort"
	"strings"

	"colorfulxml/internal/core"
)

// This file is the DataGuide-style path summary: one entry per distinct
// root-anchored label path of a colored tree, carrying the structural-record
// refs of its instances. The plan compiler consults it (through
// plan.PathCatalog) to lower fully-resolvable colored path expressions to a
// direct summary probe instead of a structural-join chain, to cost that
// access path with an exact cardinality, and to learn which tags never nest
// (so a FLWOR binding them is the path it returns).
//
// Summaries are per-color, built lazily on first probe by one pass over the
// color's structural nodes in start order, and cached on the store. A cached
// summary is immutable, so snapshot clones share it; only structural
// mutations (inserts, recolorings, deletions) invalidate the
// cache — content and attribute updates leave every label path intact.

// PathStep is one step of a root-anchored label-path pattern. Desc means the
// step's tag may sit at any depth below the previous step (descendant axis,
// "//tag"); otherwise it must be a direct child ("/tag"). The first step is
// relative to the document, so Desc on it means "at any depth" and !Desc
// means "a root element".
type PathStep struct {
	Tag  string
	Desc bool
}

// PathString renders steps in XPath-ish form, for plan display.
func PathString(steps []PathStep) string {
	var b strings.Builder
	for _, st := range steps {
		if st.Desc {
			b.WriteString("//")
		} else {
			b.WriteString("/")
		}
		b.WriteString(st.Tag)
	}
	return b.String()
}

// PathSummary is the summary of one colored tree: every distinct
// root-anchored label path, with the refs of its instances in start order,
// and the tags that nest (an element below another with the same tag).
type PathSummary struct {
	paths map[string][]uint64
	nests map[string]bool
}

// pathSep joins path labels into map keys. Tags never contain '\x00'.
const pathSep = "\x00"

// buildPathSummary scans a color's structural nodes in global start order,
// maintaining the ancestor stack, and buckets each node's ref under its
// root-anchored label path.
func (s *Store) buildPathSummary(c core.Color) (*PathSummary, error) {
	ps := &PathSummary{paths: map[string][]uint64{}}
	type frame struct {
		end  int64
		path string
	}
	var stack []frame
	var scanErr error
	obsIndexProbes.Inc()
	s.starts(c).Ascend(func(_ int64, ref uint64) bool {
		sn, err := s.readStructRef(ref, c)
		if err != nil {
			scanErr = err
			return false
		}
		e, err := s.Elem(sn.Elem)
		if err != nil {
			scanErr = err
			return false
		}
		for len(stack) > 0 && stack[len(stack)-1].end < sn.Start {
			stack = stack[:len(stack)-1]
		}
		path := e.Tag
		if len(stack) > 0 {
			path = stack[len(stack)-1].path + pathSep + e.Tag
		}
		stack = append(stack, frame{end: sn.End, path: path})
		ps.paths[path] = append(ps.paths[path], ref)
		return true
	})
	if scanErr != nil {
		return nil, scanErr
	}
	// Every prefix of a label path is a label path too, so a tag nests
	// exactly when some path ends in a label it already passed through.
	ps.nests = map[string]bool{}
	for path := range ps.paths {
		labels := strings.Split(path, pathSep)
		if last := labels[len(labels)-1]; slices.Contains(labels[:len(labels)-1], last) {
			ps.nests[last] = true
		}
	}
	return ps, nil
}

// PathSummary returns the (lazily built, cached) path summary of a color.
// A color the store does not contain yields an empty summary.
func (s *Store) PathSummary(c core.Color) (*PathSummary, error) {
	t := s.tree(c)
	if t != nil {
		if ps := t.summary.Load(); ps != nil {
			obsPathSummaryProbes.Inc()
			return ps, nil
		}
	}
	// Build without a lock: the store snapshot is immutable while serving,
	// and a racing duplicate build is harmless (last writer wins, both
	// results are identical).
	ps, err := s.buildPathSummary(c)
	if err != nil {
		return nil, err
	}
	obsPathSummaryBuilds.Inc()
	if t != nil {
		t.summary.Store(ps)
	}
	obsPathSummaryProbes.Inc()
	return ps, nil
}

// invalidatePathSummaries drops every color's summary; called by every
// structural mutation (content/attribute updates preserve label paths and
// do not). The same call sites define the stats/schema epoch: whatever
// invalidates the path summary also invalidates cached compiled plans, so
// the epoch bump rides along here rather than being scattered over the
// mutators.
func (s *Store) invalidatePathSummaries() {
	for i := range s.trees {
		s.trees[i].summary.Store(nil)
	}
	s.bumpStatsEpoch()
}

// matchSteps reports whether a label path (split on pathSep) satisfies a
// step pattern anchored at the path's first label.
func matchSteps(steps []PathStep, labels []string) bool {
	if len(steps) == 0 {
		return len(labels) == 0
	}
	st := steps[0]
	if !st.Desc {
		return len(labels) > 0 && labels[0] == st.Tag && matchSteps(steps[1:], labels[1:])
	}
	for i := 0; i < len(labels); i++ {
		if labels[i] == st.Tag && matchSteps(steps[1:], labels[i+1:]) {
			return true
		}
	}
	return false
}

// Match returns the refs of every node whose root-anchored label path
// satisfies the pattern: one run per matching path, in sorted path order,
// each run in start order. A pattern that names one path — the common case —
// is therefore answered in document order as it stands; runs of several paths
// interleave in the document and the consumer merges them. Each node appears
// at most once: it has exactly one root path. The runs are the summary's own
// and must not be written.
func (ps *PathSummary) Match(steps []PathStep) [][]uint64 {
	keys := make([]string, 0, len(ps.paths))
	for path := range ps.paths {
		if matchSteps(steps, strings.Split(path, pathSep)) {
			keys = append(keys, path)
		}
	}
	sort.Strings(keys)
	runs := make([][]uint64, len(keys))
	for i, k := range keys {
		runs[i] = ps.paths[k]
	}
	return runs
}

// Count returns the number of nodes Match would yield, without touching the
// refs (the compiler's costing probe).
func (ps *PathSummary) Count(steps []PathStep) int {
	n := 0
	for path, refs := range ps.paths {
		if matchSteps(steps, strings.Split(path, pathSep)) {
			n += len(refs)
		}
	}
	return n
}

// Nests reports whether some element with this tag lies below another one
// with the same tag.
func (ps *PathSummary) Nests(tag string) bool { return ps.nests[tag] }

// Paths returns the number of distinct label paths in the summary.
func (ps *PathSummary) Paths() int { return len(ps.paths) }
