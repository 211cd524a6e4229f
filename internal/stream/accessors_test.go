package stream

// Accessors the tests read clusterer state through; the engine reads the
// same counters from the published View.

// Generation returns the current id-renumbering epoch (0 until the first
// CompactGeneration).
func (c *Clusterer) Generation() int { return c.generation }

// EverSeenIDs returns the number of ids ever minted across all generations.
func (c *Clusterer) EverSeenIDs() int { return c.baseIDs + c.N() }
