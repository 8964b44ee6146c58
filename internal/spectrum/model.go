package spectrum

// ModelKind selects a PU activity model.
type ModelKind uint8

// ModelExact simulates each PU's i.i.d. Bernoulli(p_t) slot activity
// individually — the paper's model verbatim, and the only PU model.
const ModelExact ModelKind = 1

// String implements fmt.Stringer.
func (k ModelKind) String() string {
	if k == ModelExact {
		return "exact"
	}
	return "unknown"
}
