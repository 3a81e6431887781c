package experiments

import "testing"

// TestSparsifyAcceptance holds the effective-resistance sparsifier to its
// acceptance bar at Quick() scale: on ZINC, AQSOL and CSL, keep 0.5 gives
// a band no wider (and strictly narrower on at least one) and strictly
// fewer simulated GTX1080 cycles than the unsparsified graph, and the
// whole sparsified measurement, from a freshly generated dataset and
// model, is bit-reproducible for a fixed seed.
func TestSparsifyAcceptance(t *testing.T) {
	s := Quick()
	narrower := 0
	for _, dsName := range []string{"ZINC", "AQSOL", "CSL"} {
		ds, err := loadDataset(dsName, s)
		if err != nil {
			t.Fatal(err)
		}
		model := buildModel("GCN", ds, s.Dim, s.Seed)
		base, err := measureSparsify(ds, model, 1.0, s)
		if err != nil {
			t.Fatal(err)
		}
		half, err := measureSparsify(ds, model, 0.5, s)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%-6s keep 1.0: window %.2f, cycles %.0f; keep 0.5: window %.2f, cycles %.0f",
			dsName, base.MeanWindow, base.Cycles, half.MeanWindow, half.Cycles)
		if half.MeanWindow > base.MeanWindow {
			t.Errorf("%s: keep 0.5 widened the band (%.2f > %.2f)", dsName, half.MeanWindow, base.MeanWindow)
		}
		if half.Cycles >= base.Cycles {
			t.Errorf("%s: keep 0.5 did not reduce sim cycles (%.0f vs %.0f)", dsName, half.Cycles, base.Cycles)
		}
		if half.MeanWindow < base.MeanWindow {
			narrower++
		}
		if dsName != "ZINC" {
			continue
		}
		ds2, err := loadDataset(dsName, s)
		if err != nil {
			t.Fatal(err)
		}
		again, err := measureSparsify(ds2, buildModel("GCN", ds2, s.Dim, s.Seed), 0.5, s)
		if err != nil {
			t.Fatal(err)
		}
		if again != half {
			t.Errorf("sparsified measurement not bit-reproducible: %+v vs %+v", half, again)
		}
	}
	if narrower == 0 {
		t.Error("keep 0.5 narrowed the band on no dataset")
	}
}
