package analysis

import (
	"go/ast"
	"strconv"
)

// concurrencyExemptPkgs may use real goroutines and sync primitives:
// the cooperative scheduler itself (it parks real goroutines to model
// simulated threads) and the campaign engine, whose worker pool runs
// whole isolated trials in parallel.
var concurrencyExemptPkgs = map[string]bool{
	modulePath + "/internal/sched":    true,
	modulePath + "/internal/campaign": true,
}

// SchedOnly enforces the single-vCPU cooperative execution model: the
// simulated unikernel has exactly one vCPU, so threads are
// sched.Thread values multiplexed by internal/sched, never raw
// goroutines, and there is nothing to lock — preemption points are
// explicit. A sync primitive elsewhere either hides a real data race
// against the campaign worker pool (then it needs a //vampos:allow
// with that justification) or papers over a scheduling bug.
var SchedOnly = &Analyzer{
	Name: "schedonly",
	Doc: "raw go statements, sync, and sync/atomic are reserved for internal/sched " +
		"and internal/campaign's worker pool; everything else runs on the cooperative scheduler",
	Run: runSchedOnly,
}

func runSchedOnly(pass *Pass) error {
	if concurrencyExemptPkgs[pass.Path] {
		return nil
	}
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if path == "sync" || path == "sync/atomic" {
				pass.Reportf(imp.Pos(),
					"package %s imports %q: the model is a single-vCPU cooperative scheduler (internal/sched); a lock here needs a //vampos:allow schedonly justification naming the real concurrent accessor",
					pass.Path, path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				pass.Reportf(g.Pos(),
					"raw go statement in %s: simulated threads must be spawned through internal/sched (sched.Scheduler.Spawn / Ctx.Go) so the single-vCPU dispatcher schedules them",
					pass.Path)
			}
			return true
		})
	}
	return nil
}
