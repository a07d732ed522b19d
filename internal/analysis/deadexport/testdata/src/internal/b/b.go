package b

// Mer is the interface cmd/x passes a.T through.
type Mer interface{ M() }

// Call calls m's M through the interface.
func Call(m Mer) { m.M() }
