package harness

import "testing"

// TestChaosControlGate: the rate-0 control point gates the sweep — any
// unavailability, degradation, or failure there is an error, while the
// faulted points may degrade freely.
func TestChaosControlGate(t *testing.T) {
	ok := ChaosPoint{FaultRate: 0, Queries: 10, FullyOK: 10, Availability: 1}
	faulted := ChaosPoint{FaultRate: 0.01, Queries: 10, FullyOK: 4, Degraded: 5, Failed: 1, Availability: 0.9}
	if err := (&ChaosReport{Points: []ChaosPoint{ok, faulted}}).ControlErr(); err != nil {
		t.Fatalf("healthy control rejected: %v", err)
	}
	for name, bad := range map[string]ChaosPoint{
		"degraded": {FaultRate: 0, Queries: 10, FullyOK: 9, Degraded: 1, Availability: 1},
		"failed":   {FaultRate: 0, Queries: 10, FullyOK: 9, Failed: 1, Availability: 0.9},
	} {
		if err := (&ChaosReport{Points: []ChaosPoint{bad, faulted}}).ControlErr(); err == nil {
			t.Fatalf("%s control point passed the gate", name)
		}
	}
}
