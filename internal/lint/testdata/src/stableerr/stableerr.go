// Fixture for the stableerr analyzer: dropped and blanked errors from the
// stable-storage, bus, and kernel command APIs. The fixture imports the real
// module packages, so the analyzer matches the same (package, receiver)
// pairs it matches in production code.
package stableerr

import (
	"repro/internal/bus"
	"repro/internal/scram"
	"repro/internal/stable"
)

func dropped(st *stable.Store, ep *bus.Endpoint) {
	st.PutJSON("telemetry", 1) // want `error from \(repro/internal/stable.Store\).PutJSON is dropped`
	ep.Publish("topic", nil)   // want `error from \(repro/internal/bus.Endpoint\).Publish is dropped`
}

func blanked(st *stable.Store) int64 {
	n, _ := st.GetInt64("work")            // want `error from \(repro/internal/stable.Store\).GetInt64 is assigned to _`
	_, _, _ = scram.ReadCommand(st, "nav") // want `error from repro/internal/scram.ReadCommand is assigned to _`
	return n
}

// handled shows the legal forms: returned, inspected, or forwarded errors.
func handled(st *stable.Store, ep *bus.Endpoint) error {
	if err := ep.Publish("topic", nil); err != nil {
		return err
	}
	n, err := st.GetInt64("work")
	if err != nil {
		return err
	}
	st.PutInt64("work", n+1)
	return st.PutJSON("telemetry", n)
}

// audited exercises the escape hatch: a blank assignment with an in-tree
// justification is legal.
func audited(st *stable.Store) {
	//lint:allow stableerr a missing counter reads as zero by design in this fixture
	_, _ = st.GetInt64("work")
}
