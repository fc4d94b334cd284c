package experiments

import (
	"context"
	"fmt"

	"github.com/ksan-net/ksan/internal/engine"
	"github.com/ksan-net/ksan/internal/karynet"
	"github.com/ksan-net/ksan/internal/policy"
	"github.com/ksan-net/ksan/internal/report"
	"github.com/ksan-net/ksan/internal/statictree"
	"github.com/ksan-net/ksan/internal/workload"
)

// LazyVsReactive compares the fully reactive k-ary SplayNet against the
// partially reactive meta-algorithm (policy.NewLazy) across reconfiguration
// thresholds α, using the model's raw link-churn cost for the lazy
// rebuilds. This extends the paper's introduction discussion of lazy SANs
// ([13]) to the k-ary setting.
func LazyVsReactive(tr workload.Trace, k int, alphas []int64) report.Table {
	t, err := LazyVsReactiveCtx(context.Background(), engine.New(), tr, k, alphas)
	if err != nil {
		// The historical signature has no error path; fail as loudly as the
		// seed code did.
		panic(err)
	}
	return t
}

// LazyVsReactiveCtx is LazyVsReactive on an explicit engine and context.
// The lazy networks replay their observed traffic into rebuilds
// internally, so each network instance must see the trace strictly in
// order: the engine serves each row sequentially and the rows themselves
// run one after another.
func LazyVsReactiveCtx(ctx context.Context, eng *engine.Engine, tr workload.Trace, k int, alphas []int64) (report.Table, error) {
	t := report.Table{
		Title:  fmt.Sprintf("Extension: fully reactive vs partially reactive (lazy) networks (%s, k=%d)", tr.Name, k),
		Header: []string{"network", "routing", "adjustment", "total", "rebuilds"},
	}
	reactive, err := eng.Run(ctx, karynet.MustNew(tr.N, k), tr.Reqs)
	if err != nil {
		return t, err
	}
	t.AddRow(fmt.Sprintf("%d-ary SplayNet (reactive)", k),
		report.Count(reactive.Routing), report.Count(reactive.Adjust),
		report.Count(reactive.Total()), "-")
	full, err := statictree.Full(tr.N, k)
	if err != nil {
		return t, err
	}
	static, err := eng.Run(ctx, statictree.NewNet("full", full), tr.Reqs)
	if err != nil {
		return t, err
	}
	t.AddRow("full tree (never adjusts)",
		report.Count(static.Routing), "0", report.Count(static.Total()), "0")
	for _, a := range alphas {
		lazy, err := policy.NewLazy(tr.N, k, a)
		if err != nil {
			return t, err
		}
		res, err := eng.Run(ctx, lazy, tr.Reqs)
		if err != nil {
			return t, err
		}
		t.AddRow(fmt.Sprintf("lazy α=%d", a),
			report.Count(res.Routing), report.Count(res.Adjust),
			report.Count(res.Total()), fmt.Sprintf("%d", lazy.Rebuilds()))
	}
	return t, nil
}
