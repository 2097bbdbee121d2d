package jade

import (
	"fmt"
	"testing"
)

// fabricGridFirstViolations is each fabric-on run's first violation,
// keyed by {speedup, seed}.
var fabricGridFirstViolations = map[[2]int]string{
	{2, 1}: "invariant cjdbc-consistency:cjdbc1 violated at t=694.000 (tick): state divergence at log index 6241: mysql-r2 fingerprint f6ab974b4b408664 != mysql-r3 fingerprint dfbeeac0b2bb13df",
	{2, 2}: "invariant cjdbc-consistency:cjdbc1 violated at t=676.000 (tick): state divergence at log index 5916: mysql-r2 fingerprint 7a8516632e9a2d80 != mysql-r3 fingerprint 00556c87bf0f6592",
	{2, 3}: "invariant cjdbc-consistency:cjdbc1 violated at t=532.000 (tick): state divergence at log index 3759: mysql-r2 fingerprint 885419e8ab9c2c42 != mysql-r3 fingerprint 81def3830f2be201",
	{4, 1}: "invariant cjdbc-consistency:cjdbc1 violated at t=259.000 (tick): state divergence at log index 1585: mysql-r2 fingerprint c59e1e2d92e5d775 != mysql1 fingerprint 2d152f645346b400",
	{4, 2}: "invariant cjdbc-consistency:cjdbc1 violated at t=495.000 (tick): state divergence at log index 4676: mysql-r2 fingerprint b6b3fb9a6ad2fcea != mysql1 fingerprint 4ce2b52bd5518748",
	{4, 3}: "invariant cjdbc-consistency:cjdbc1 violated at t=359.000 (tick): state divergence at log index 2845: mysql-r3 fingerprint 277686ec380d8d20 != mysql1 fingerprint 1e513ea765d63326",
	{8, 1}: "invariant balancer-agreement:cjdbc1/database-backends violated at t=232.000 (tick): started replica mysql1 of tier database-backends missing from balancer",
	{8, 2}: "invariant balancer-agreement:cjdbc1/database-backends violated at t=235.000 (tick): started replica mysql1 of tier database-backends missing from balancer",
	{8, 3}: "invariant cjdbc-consistency:cjdbc1 violated at t=231.000 (tick): state divergence at log index 1832: mysql-r2 fingerprint ed8f814a1e66f5f8 != mysql1 fingerprint b2048946fe7fca41",
}

// TestFabricGridFirstViolations pins ROADMAP item 1's grid: the paper's
// managed ramp under invariants, compressed 2, 4 and 8 times, seeds 1-3,
// with the network fabric on and off. Off, every run passes with the
// same number of checks. On, every run fails, and this test holds each
// run's first violation to the text it has while §4.1's writes are not
// at-most-once over the fabric (ROADMAP item 1, suspects (a)-(c)). The
// change that fixes the protocol rewrites the fabric-on half to pass.
func TestFabricGridFirstViolations(t *testing.T) {
	checksOff := map[int]uint64{2: 7956, 4: 4176, 8: 2274}
	for _, speedup := range []int{2, 4, 8} {
		for seed := 1; seed <= 3; seed++ {
			for _, fabric := range []bool{true, false} {
				t.Run(fmt.Sprintf("x%d/seed%d/fabric=%v", speedup, seed, fabric), func(t *testing.T) {
					t.Parallel()
					cfg := DefaultScenario(int64(seed), true)
					cfg.Profile = compressedRamp(float64(speedup))
					cfg.Invariants = true
					cfg.TraceOff = true
					cfg.Net.Enabled = fabric
					r, err := RunScenario(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if !fabric {
						if r.InvariantViolation != nil {
							t.Fatalf("fabric off: %v", r.InvariantViolation)
						}
						if r.InvariantChecks != checksOff[speedup] {
							t.Fatalf("fabric off: %d checks, want %d", r.InvariantChecks, checksOff[speedup])
						}
						return
					}
					want := fabricGridFirstViolations[[2]int{speedup, seed}]
					if r.InvariantViolation == nil {
						t.Fatalf("fabric on: no violation, want %q", want)
					}
					if got := r.InvariantViolation.Error(); got != want {
						t.Errorf("fabric on: first violation\n%q\nwant\n%q", got, want)
					}
				})
			}
		}
	}
}
