package experiments

import (
	"fmt"
	"testing"

	"spider/internal/core"
)

// Population benchmarks: the classic 64-client rung plus the
// dense-stagger city-scale rungs. CI runs the dense rungs under
// -benchmem and captures a heap profile from the 1024-client rung
// (-memprofile) as artifacts to read, not to gate on: perfbench is the
// cross-commit timer, and TestPinnedPopulationLadder pins each rung's
// output.
func BenchmarkPopulation(b *testing.B) {
	o := Options{Seed: 1, Scale: 0.05}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		world, clients := PopulationScenario(o, 64)
		core.RunPopulation(world, clients)
	}
}

func BenchmarkPopulationDense(b *testing.B) {
	for _, n := range []int{256, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			o := Options{Seed: 1, Scale: 0.05}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				world, clients := PopulationDenseScenario(o, n)
				core.RunPopulation(world, clients)
			}
		})
	}
}
