package netsim

// TestHooks re-enable fixed historical bugs behind an explicit opt-in.
// They exist for the chaos engine's self-validation: a search harness
// that claims to find invariant violations must demonstrably find the
// bugs this codebase actually had. Production code never sets hooks;
// the zero value is the fixed behavior.
type TestHooks struct {
	// WedgeOnDrop re-introduces the pre-fix SendAndWait behavior: a
	// fault-filter drop never resolves the blocking wait, wedging the
	// sender process for the rest of the run (the bug the sim progress
	// watchdog turns into a typed StallError).
	WedgeOnDrop bool
	// PhantomEndpoints re-introduces the pre-fix EndpointSent behavior:
	// probing an endpoint that never sent allocates an endpoint record, so
	// reads grow Endpoints() with zero-traffic phantoms and fabric
	// accounting reports break.
	PhantomEndpoints bool
}
