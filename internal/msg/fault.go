// Fault-path counters. Send and Call never lose a message: over a
// faulted fabric the layer's reliable transport retransmits until the
// frame is acknowledged or MarkDead fences an endpoint, and Call reports
// a fenced peer as an error. The one loss the layer itself sees is a
// same-node delivery on a crashed node.
package msg

// FaultStats counts fault-path events at the messaging layer.
type FaultStats struct {
	Dropped int64 // same-node messages dropped (crashed node)
}

// FaultStats returns a copy of the layer's fault-path counters.
func (l *Layer) FaultStats() FaultStats { return l.faults }
