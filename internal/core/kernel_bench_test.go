package core

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"
)

// benchFragment builds one interleaved fragment with c ascending
// thresholds (the arena layout: children at even offsets, thresholds at
// odd offsets) plus the matching deinterleaved plane, and a probe-value
// stream whose answers are uniform over the slots — the worst case for
// the early-exit scan's branch predictor and the average case for
// routing.
func benchFragment(c int, rng *rand.Rand) (m []int32, plane []int32, values []int32) {
	m = make([]int32, 2*c+1)
	plane = make([]int32, c)
	v := int32(0)
	for i := 0; i < c; i++ {
		v += 1 + rng.Int31n(64)
		m[2*i+1] = v
		plane[i] = v
	}
	// A long probe stream (1M values, power-of-two length so the cycling
	// index is a mask) keeps the measurement honest: with a short cycle a
	// modern branch predictor memorizes the early-exit scan's exit points
	// and the scalar baseline benchmarks far below its real serve-path
	// cost, where probe values do not repeat.
	values = make([]int32, 1<<20)
	for i := range values {
		values[i] = rng.Int31n(v + 64)
	}
	return m, plane, values
}

// BenchmarkSlotFor is the microbenchmark grid behind the kernel selection
// and the §13 layout decision record: every kernel family × the threshold
// counts that actually occur at served arities (c = k−1 node spans for
// k ∈ {2,5,8,16,32}, and 2(k−1)/3(k−1) rebuild merges). The sink defeats
// dead-code elimination; the value stream cycles so each probe's slot is
// unpredictable.
func BenchmarkSlotFor(b *testing.B) {
	var sink int
	for _, c := range []int{1, 4, 7, 8, 14, 15, 21, 31, 62, 93} {
		rng := rand.New(rand.NewSource(int64(c)))
		m, plane, values := benchFragment(c, rng)
		run := func(name string, fn func(i int) int) {
			b.Run(fmt.Sprintf("c=%d/%s", c, name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					sink += fn(i)
				}
			})
		}
		kern := kernelForCount(c)
		run("scalar", func(i int) int { return slotScalar(m, values[i%len(values)]) })
		run("kernel", func(i int) int { return kern(m, values[i%len(values)]) })
		run("swar", func(i int) int { return slotSWAR(m, values[i%len(values)]) })
		run("swarpop", func(i int) int { return slotSWARPopcount(m, values[i%len(values)]) })
		run("bisect", func(i int) int { return slotBisect(m, values[i%len(values)]) })
		run("plane-scalar", func(i int) int { return slotScalarPlane(plane, values[i%len(values)]) })
		run("plane-branchless", func(i int) int { return slotBranchlessPlane(plane, values[i%len(values)]) })
		run("plane-swar", func(i int) int { return slotSWARPlane(plane, values[i%len(values)]) })
		run("plane-bisect", func(i int) int { return slotBisectPlane(plane, values[i%len(values)]) })
	}
	if sink == 1<<62 {
		b.Log(sink) // keep the accumulator live
	}
}

// BenchmarkMov races the rebuilds' two span-move strategies — the scalar
// int32 loop and copy()/memmove — on the exact lengths the rebuilds move:
// node spans 2k−1 and the d=2/d=3 merge fragments for the served arities.
// The crossover it measures sets movCopyMin (rebuild.go).
func BenchmarkMov(b *testing.B) {
	for _, n := range []int{3, 9, 15, 17, 29, 31, 45, 63, 93, 125, 187} {
		src := make([]int32, n)
		dst := make([]int32, n)
		for i := range src {
			src[i] = int32(i)
		}
		b.Run(fmt.Sprintf("n=%d/scalar", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = dst[:len(src)]
				for j := 0; j < len(src); j++ {
					dst[j] = src[j]
				}
			}
		})
		b.Run(fmt.Sprintf("n=%d/copy", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(dst, src)
			}
		})
		b.Run(fmt.Sprintf("n=%d/mov", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mov(dst, src)
			}
		})
	}
}

// --- Deinterleaved-plane variants -----------------------------------------
//
// The same three kernel shapes over a contiguous thresholds slice (stride
// k−1 per node, no interleaved children). The Tree does not use them:
// they exist so BenchmarkSlotFor can race the two layouts and so the
// property tests pin both families to one reference — the evidence behind
// the §13 decision to keep the interleaved span as the only layout.

// slotScalarPlane is slotScalar over a contiguous thresholds slice.
func slotScalarPlane(thr []int32, value int32) int {
	s := 0
	for _, t := range thr {
		if t >= value {
			break
		}
		s++
	}
	return s
}

// slotBranchlessPlane is the comparison-counting loop over a contiguous
// thresholds slice (the unrolled kernels' shape, without the unrolling).
func slotBranchlessPlane(thr []int32, value int32) int {
	s := 0
	for _, t := range thr {
		s += lt(t, value)
	}
	return s
}

// slotSWARPlane is slotSWAR over a contiguous thresholds slice.
func slotSWARPlane(thr []int32, value int32) int {
	vv := uint64(uint32(value))
	vv |= vv << 32
	var acc uint64
	i := 0
	for ; i+1 < len(thr); i += 2 {
		w := uint64(uint32(thr[i])) | uint64(uint32(thr[i+1]))<<32 | swarSigns
		acc += ((w - vv) & swarSigns) >> 31
	}
	ge := int(uint32(acc)) + int(acc>>32)
	if i < len(thr) {
		ge += 1 - lt(thr[i], value)
	}
	return len(thr) - ge
}

// slotBisectPlane is slotBisect over a contiguous thresholds slice.
func slotBisectPlane(thr []int32, value int32) int {
	lo, n := 0, len(thr)
	for n > 1 {
		half := n >> 1
		lo += half & -lt(thr[lo+half-1], value)
		n -= half
	}
	return lo + lt(thr[lo], value)
}

// slotSWARPopcount is the popcount formulation of the chunked kernel:
// fold each pair's sign-bit mask with math/bits.OnesCount64 immediately
// instead of accumulating shifted lane counters. Raced against slotSWAR
// in BenchmarkSlotFor; kernelForCount selects whichever form the §13
// decision record shows winning (currently the lane-counter form — one
// add per pair beats one popcount per pair on the served sizes).
func slotSWARPopcount(m []int32, value int32) int {
	vv := uint64(uint32(value))
	vv |= vv << 32
	ge := 0
	i := 1
	for ; i+2 < len(m); i += 4 {
		w := uint64(uint32(m[i])) | uint64(uint32(m[i+2]))<<32 | swarSigns
		ge += bits.OnesCount64((w - vv) & swarSigns)
	}
	if i < len(m) { // odd threshold count: one scalar tail lane
		ge += 1 - lt(m[i], value)
	}
	return (len(m)-1)/2 - ge
}
