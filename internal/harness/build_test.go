package harness

import "testing"

// TestSemispaceMarkerNWired: MarkerN on the semispace baseline reaches
// the collector (it used to be dropped), while the plain semispace run
// still places no markers.
func TestSemispaceMarkerNWired(t *testing.T) {
	cfg := RunConfig{Workload: "Life", Scale: tiny, Kind: KindSemispace, K: 4}
	plain, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.MarkerN = 7
	marked, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Stats.MarkersPlaced != 0 {
		t.Errorf("semispace without MarkerN placed %d markers", plain.Stats.MarkersPlaced)
	}
	if marked.Stats.MarkersPlaced == 0 {
		t.Error("semispace with MarkerN 7 placed no stack markers")
	}
	if marked.Check != plain.Check {
		t.Errorf("markers changed the client result: %#x vs %#x", marked.Check, plain.Check)
	}
}
