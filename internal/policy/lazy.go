package policy

import (
	"fmt"

	"github.com/ksan-net/ksan/internal/core"
	"github.com/ksan-net/ksan/internal/statictree"
)

// NewLazy constructs the partially reactive meta-algorithm the paper
// describes in its introduction (after Feder et al.'s lazy
// self-adjusting networks): the network stays static until the routing
// cost accumulated since the last reconfiguration reaches alpha, then
// rebuilds a weight-balanced tree from the traffic observed in the
// meanwhile and swaps it in, paying the links added plus removed. It is
// the canonical composition
//
//	balanced k-ary tree × (Alpha(alpha), Rebuild(weight-balanced))
//
// and variations (the exact DP builder, hysteresis, periodic rebuilds)
// are other compositions over New.
func NewLazy(n, k int, alpha int64) (*Net, error) {
	if alpha <= 0 {
		return nil, fmt.Errorf("policy: lazy net threshold must be positive, got %d", alpha)
	}
	t, err := core.NewBalanced(n, k)
	if err != nil {
		return nil, fmt.Errorf("policy: %w", err)
	}
	return New(fmt.Sprintf("lazy %d-ary net (α=%d)", k, alpha), t,
		Alpha(alpha), Rebuild("weight-balanced", statictree.WeightBalanced))
}
