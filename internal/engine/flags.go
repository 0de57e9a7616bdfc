package engine

import (
	"flag"
	"runtime"
)

// Worker-count CLI plumbing. The commands with a worker count
// (profile2d, experiments) take the same canonical -workers flag.

// ResolveWorkers normalises a worker-count setting the way Options
// does: non-positive means one worker per available CPU.
func ResolveWorkers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// AddWorkersFlag registers the canonical -workers flag on fs. def is
// the default worker count.
func AddWorkersFlag(fs *flag.FlagSet, def int, usage string) *int {
	return fs.Int("workers", def, usage)
}
