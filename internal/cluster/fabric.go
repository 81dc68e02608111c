package cluster

import "zeus/internal/transport"

// FabricKind selects the network substrate.
type FabricKind int

const (
	// FabricMem is the perfect in-process hub (fast; unit tests, benches).
	FabricMem FabricKind = iota
	// FabricSim is the lossy simulated network under the reliable
	// transport (protocol stress, fault injection); Options.Net
	// configures it.
	FabricSim
	// FabricTCP runs every endpoint over real loopback TCP sockets:
	// in-process nodes, real syscalls — the load harness's "over TCP"
	// configuration.
	FabricTCP
)

// newFabric builds the fabric opts selects. It is the only code in the package
// that knows there are three.
func newFabric(opts Options) transport.Fabric {
	switch opts.Fabric {
	case FabricSim:
		return transport.NewSimFabric(opts.Net)
	case FabricTCP:
		return transport.NewTCPFabric()
	}
	return transport.NewHub()
}
